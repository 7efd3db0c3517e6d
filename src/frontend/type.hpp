// NetCL-C type system.
//
// Kernel arguments and device memory are restricted to fundamental integer
// types (the paper, §V-A), plus the lookup record types ncl::kv<K,V> and
// ncl::rv<R,V> which may only appear as element types of _lookup_ arrays.
#pragma once

#include <cstdint>
#include <string>

namespace netcl {

/// Scalar integer type: a bit width (1, 8, 16, 32, or 64) plus signedness.
/// bool is represented as width 1, unsigned.
struct ScalarType {
  std::uint8_t bits = 32;
  bool is_signed = false;

  friend bool operator==(ScalarType, ScalarType) = default;

  [[nodiscard]] std::uint64_t max_unsigned() const {
    return bits >= 64 ? ~0ULL : ((1ULL << bits) - 1);
  }
  /// Truncates `v` to this type's width (two's complement wraparound).
  [[nodiscard]] std::uint64_t truncate(std::uint64_t v) const {
    return v & max_unsigned();
  }
  /// Sign- or zero-extends a truncated value back to 64 bits for arithmetic.
  [[nodiscard]] std::int64_t extend(std::uint64_t v) const {
    v = truncate(v);
    if (!is_signed || bits >= 64) return static_cast<std::int64_t>(v);
    const std::uint64_t sign_bit = 1ULL << (bits - 1);
    if ((v & sign_bit) != 0) v |= ~max_unsigned();
    return static_cast<std::int64_t>(v);
  }

  [[nodiscard]] std::string to_string() const;
};

inline constexpr ScalarType kBool{1, false};
inline constexpr ScalarType kU8{8, false};
inline constexpr ScalarType kU16{16, false};
inline constexpr ScalarType kU32{32, false};
inline constexpr ScalarType kU64{64, false};
inline constexpr ScalarType kI8{8, true};
inline constexpr ScalarType kI16{16, true};
inline constexpr ScalarType kI32{32, true};
inline constexpr ScalarType kI64{64, true};

/// C-style usual arithmetic conversions restricted to our widths: the result
/// has the larger width; if widths are equal and either side is unsigned the
/// result is unsigned.
[[nodiscard]] ScalarType common_type(ScalarType a, ScalarType b);

/// Lookup-array element kinds (Table I of the paper).
enum class LookupKind : std::uint8_t {
  Set,    // scalar element; lookup() tests membership
  Exact,  // ncl::kv<K,V>; exact match on k
  Range,  // ncl::rv<R,V>; lo <= x <= hi
};

/// Resolves a named scalar type ("u32", "uint16_t", "int", ...). Returns
/// false if the name is not a known scalar type alias.
[[nodiscard]] bool scalar_type_from_name(const std::string& name, ScalarType& out);

}  // namespace netcl
