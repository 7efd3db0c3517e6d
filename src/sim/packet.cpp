#include "sim/packet.hpp"

#include <algorithm>
#include <bit>
#include <cstring>

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

template <typename Word>
Word swap_bytes(Word word) {
  Word swapped = 0;
  for (std::size_t b = 0; b < sizeof(Word); ++b) {
    swapped = static_cast<Word>((swapped << 8) | ((word >> (8 * b)) & 0xFF));
  }
  return swapped;
}

// Elements move with one fixed-width little-endian load or store each.
template <typename Word>
void load_words(const std::uint8_t* in, std::size_t count, std::uint64_t* out) {
  for (std::size_t e = 0; e < count; ++e, in += sizeof(Word)) {
    Word word;
    std::memcpy(&word, in, sizeof(Word));
    if constexpr (std::endian::native == std::endian::big) word = swap_bytes(word);
    out[e] = word;
  }
}

template <typename Word>
void store_words(const std::uint64_t* in, std::size_t count, std::uint8_t* out) {
  for (std::size_t e = 0; e < count; ++e, out += sizeof(Word)) {
    auto word = static_cast<Word>(in[e]);  // truncates to the argument's width
    if constexpr (std::endian::native == std::endian::big) word = swap_bytes(word);
    std::memcpy(out, &word, sizeof(Word));
  }
}
}  // namespace

void encode_args_into(const KernelSpec& spec, const ArgValues& values,
                      std::vector<std::uint8_t>& out) {
  out.resize(encoded_size(spec));
  std::uint8_t* pos = out.data();
  for (std::size_t a = 0; a < spec.args.size(); ++a) {
    const ArgSpec& arg = spec.args[a];
    const auto width = static_cast<std::size_t>(byte_width(arg));
    const auto count = static_cast<std::size_t>(arg.count);
    // Values past the ones given encode as 0.
    const std::size_t given = a < values.size() ? std::min(count, values[a].size()) : 0;
    const std::uint64_t* in = given > 0 ? values[a].data() : nullptr;
    if (arg.type.bits == 1) {
      for (std::size_t e = 0; e < given; ++e) pos[e] = static_cast<std::uint8_t>(in[e] & 1);
    } else {
      switch (width) {
        case 1: store_words<std::uint8_t>(in, given, pos); break;
        case 2: store_words<std::uint16_t>(in, given, pos); break;
        case 4: store_words<std::uint32_t>(in, given, pos); break;
        default: store_words<std::uint64_t>(in, given, pos); break;
      }
    }
    if (given < count) std::memset(pos + given * width, 0, (count - given) * width);
    pos += count * width;
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
    const auto width = static_cast<std::size_t>(byte_width(arg));
    const auto count = static_cast<std::size_t>(arg.count);
    std::vector<std::uint64_t>& out = values[a];
    out.resize(count);
    // Whole elements inside the buffer take the word path. Past them, in a
    // short buffer, the element its end cuts and any wholly missing ones
    // read their missing bytes as 0.
    const std::size_t left = data.size() - std::min(pos, data.size());
    const std::size_t whole = std::min(count, left / width);
    const std::uint8_t* in = data.data() + (data.size() - left);
    switch (width) {
      case 1: load_words<std::uint8_t>(in, whole, out.data()); break;
      case 2: load_words<std::uint16_t>(in, whole, out.data()); break;
      case 4: load_words<std::uint32_t>(in, whole, out.data()); break;
      default: load_words<std::uint64_t>(in, whole, out.data()); break;
    }
    pos += whole * width;
    for (std::size_t e = whole; e < count; ++e) {
      std::uint64_t value = 0;
      for (std::size_t b = 0; b < width; ++b, ++pos) {
        if (pos < data.size()) value |= static_cast<std::uint64_t>(data[pos]) << (8 * b);
      }
      out[e] = value;
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
