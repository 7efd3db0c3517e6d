// Packets and the NetCL wire format (paper Fig. 10).
//
// A NetCL-over-UDP packet is ETH|IP|UDP|netcl header|kernel-arg data. The
// simulator carries the parsed form; `encode_args`/`decode_args` implement
// the little-endian layout both the host runtime's pack/unpack and the
// device's parser use (one codec, so they cannot drift apart).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "frontend/sema.hpp"
#include "sim/telemetry.hpp"

namespace netcl::sim {

/// The NetCL shim header: src/dst are host ids, from/to device ids
/// (0 = none), comp the computation id.
struct NetclHeader {
  std::uint16_t src = 0;
  std::uint16_t dst = 0;
  std::uint16_t from = 0;
  std::uint16_t to = 0;
  std::uint8_t comp = 0;
  std::uint8_t flags = 0;
  std::uint16_t len = 0;

  static constexpr int kWireBytes = 12;
};

/// Decoded kernel-argument values: one vector per argument, `spec.count`
/// elements each.
using ArgValues = std::vector<std::vector<std::uint64_t>>;

struct Packet {
  bool has_netcl = false;
  NetclHeader netcl;
  std::vector<std::uint8_t> payload;  // encoded kernel arguments
  /// In-band telemetry (ISSUE 4): empty and unrequested unless the sender
  /// set kFlagTelemetry, in which case each hop appends a stamp. On the
  /// wire the hops travel in a trailer after the payload.
  TelemetryRecord telemetry;

  /// Approximate on-wire size: ETH(14)+IP(20)+UDP(8) + netcl + payload
  /// (+ INT trailer when requested).
  [[nodiscard]] int wire_bytes() const {
    return 14 + 20 + 8 + (has_netcl ? NetclHeader::kWireBytes : 0) +
           static_cast<int>(payload.size()) +
           (telemetry.requested ? static_cast<int>(trailer_bytes(telemetry.hops.size())) : 0);
  }
};

/// Serializes argument values per the kernel specification (little-endian,
/// natural widths, arguments in order) into `out`, replacing its contents
/// and keeping its capacity. Values are truncated to their argument width;
/// missing ones encode as 0.
void encode_args_into(const KernelSpec& spec, const ArgValues& values,
                      std::vector<std::uint8_t>& out);
/// encode_args_into a fresh buffer.
[[nodiscard]] std::vector<std::uint8_t> encode_args(const KernelSpec& spec,
                                                    const ArgValues& values);

/// Deserializes into `values`, shaping it like make_args(spec) first (no
/// allocation when it already has that shape); bytes past the end of a
/// short buffer read as 0.
void decode_args_into(const KernelSpec& spec, std::span<const std::uint8_t> data,
                      ArgValues& values);
/// decode_args_into fresh values.
[[nodiscard]] ArgValues decode_args(const KernelSpec& spec, std::span<const std::uint8_t> data);

/// Zero-initialized argument values matching a specification.
[[nodiscard]] ArgValues make_args(const KernelSpec& spec);

}  // namespace netcl::sim
