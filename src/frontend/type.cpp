#include "frontend/type.hpp"

#include <unordered_map>

namespace netcl {

std::string ScalarType::to_string() const {
  if (bits == 1) return "bool";
  // Built up in two steps: the one-expression concatenation trips a GCC 12
  // -Wrestrict false positive under -Werror.
  std::string name(is_signed ? "i" : "u");
  name += std::to_string(static_cast<int>(bits));
  return name;
}

ScalarType common_type(ScalarType a, ScalarType b) {
  const std::uint8_t bits = a.bits > b.bits ? a.bits : b.bits;
  // Promote to at least int width, as C does.
  const std::uint8_t promoted = bits < 32 ? 32 : bits;
  bool is_signed = true;
  if (a.bits == promoted && !a.is_signed) is_signed = false;
  if (b.bits == promoted && !b.is_signed) is_signed = false;
  if (promoted > a.bits && promoted > b.bits) is_signed = true;  // both promoted to int
  return ScalarType{promoted, is_signed};
}

bool scalar_type_from_name(const std::string& name, ScalarType& out) {
  static const std::unordered_map<std::string, ScalarType> kNames = {
      {"u8", kU8},       {"u16", kU16},      {"u32", kU32},      {"u64", kU64},
      {"i8", kI8},       {"i16", kI16},      {"i32", kI32},      {"i64", kI64},
      {"uint8_t", kU8},  {"uint16_t", kU16}, {"uint32_t", kU32}, {"uint64_t", kU64},
      {"int8_t", kI8},   {"int16_t", kI16},  {"int32_t", kI32},  {"int64_t", kI64},
      {"size_t", kU64},
  };
  const auto it = kNames.find(name);
  if (it == kNames.end()) return false;
  out = it->second;
  return true;
}

}  // namespace netcl
