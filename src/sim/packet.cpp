#include "sim/packet.hpp"

namespace netcl::sim {

namespace {
int byte_width(const ArgSpec& arg) { return arg.type.bits <= 8 ? 1 : arg.type.bits / 8; }

std::size_t encoded_size(const KernelSpec& spec) {
  std::size_t bytes = 0;
  for (const ArgSpec& arg : spec.args) {
    bytes += static_cast<std::size_t>(byte_width(arg)) * static_cast<std::size_t>(arg.count);
  }
  return bytes;
}
}  // namespace

void encode_args_into(const KernelSpec& spec, const ArgValues& values,
                      std::vector<std::uint8_t>& out) {
  out.resize(encoded_size(spec));
  std::size_t pos = 0;
  for (std::size_t a = 0; a < spec.args.size(); ++a) {
    const ArgSpec& arg = spec.args[a];
    const int width = byte_width(arg);
    for (int e = 0; e < arg.count; ++e) {
      const std::uint64_t value =
          a < values.size() && e < static_cast<int>(values[a].size())
              ? arg.type.truncate(values[a][static_cast<std::size_t>(e)])
              : 0;
      for (int b = 0; b < width; ++b) out[pos++] = static_cast<std::uint8_t>(value >> (8 * b));
    }
  }
}

std::vector<std::uint8_t> encode_args(const KernelSpec& spec, const ArgValues& values) {
  std::vector<std::uint8_t> out;
  encode_args_into(spec, values, out);
  return out;
}

void decode_args_into(const KernelSpec& spec, std::span<const std::uint8_t> data,
                      ArgValues& values) {
  values.resize(spec.args.size());
  std::size_t pos = 0;
  for (std::size_t a = 0; a < spec.args.size(); ++a) {
    const ArgSpec& arg = spec.args[a];
    const int width = byte_width(arg);
    values[a].resize(static_cast<std::size_t>(arg.count));
    for (int e = 0; e < arg.count; ++e) {
      std::uint64_t value = 0;
      for (int b = 0; b < width; ++b) {
        if (pos < data.size()) value |= static_cast<std::uint64_t>(data[pos]) << (8 * b);
        ++pos;
      }
      values[a][static_cast<std::size_t>(e)] = value;
    }
  }
}

ArgValues decode_args(const KernelSpec& spec, std::span<const std::uint8_t> data) {
  ArgValues values = make_args(spec);
  decode_args_into(spec, data, values);
  return values;
}

ArgValues make_args(const KernelSpec& spec) {
  ArgValues values;
  values.reserve(spec.args.size());
  for (const ArgSpec& arg : spec.args) {
    values.emplace_back(static_cast<std::size_t>(arg.count), 0);
  }
  return values;
}

}  // namespace netcl::sim
