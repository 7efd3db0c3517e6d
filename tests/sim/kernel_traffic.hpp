// Seeded kernel traffic for the executor tests. Argument values mix small
// numbers, which reach real register cells, table keys and opcodes, with
// full-width ones: out-of-range register indices, invalid opcodes. One
// payload in ten is cut short, which the device decodes as trailing zeros.
#pragma once

#include <cstdint>
#include <vector>

#include "sim/packet.hpp"
#include "support/hashes.hpp"

namespace netcl::sim::testing {

inline std::uint64_t traffic_value(SplitMix64& rng) {
  switch (rng.next_below(4)) {
    case 0:
    case 1: return rng.next_below(8);
    case 2: return rng.next_below(256);
    default: return rng.next();
  }
}

/// The wire payload of one request for `spec`.
inline std::vector<std::uint8_t> traffic_payload(const KernelSpec& spec, SplitMix64& rng) {
  std::vector<std::uint8_t> bytes;
  for (const ArgSpec& arg : spec.args) {
    const int width = arg.type.bits <= 8 ? 1 : arg.type.bits / 8;
    for (int e = 0; e < arg.count; ++e) {
      const std::uint64_t value = traffic_value(rng);
      for (int b = 0; b < width; ++b) bytes.push_back(static_cast<std::uint8_t>(value >> (8 * b)));
    }
  }
  if (rng.next_below(10) == 0) bytes.resize(rng.next_below(bytes.size() + 1));
  return bytes;
}

inline NetclHeader traffic_header(int computation, SplitMix64& rng) {
  NetclHeader header;
  header.src = static_cast<std::uint16_t>(rng.next_below(8));
  header.dst = static_cast<std::uint16_t>(rng.next_below(8));
  header.from = static_cast<std::uint16_t>(rng.next_below(8));
  header.to = static_cast<std::uint16_t>(rng.next_below(8));
  header.comp = static_cast<std::uint8_t>(computation);
  return header;
}

}  // namespace netcl::sim::testing
