// Flat VByte: delta + VByte coding of a whole strictly increasing
// sequence — the posting format of the seed query kernel. The block codec
// (index/block_codec.hpp) replaced it in the library; query_bench rebuilds
// the seed kernel from it as the baseline its gates compare against, and
// micro_bench times its decode.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <vector>

#include "index/varbyte.hpp"

namespace resex {

/// Delta + VByte encodes a strictly increasing sequence.
inline std::vector<std::uint8_t> encodeMonotone(const std::vector<std::uint32_t>& values) {
  std::vector<std::uint8_t> out;
  out.reserve(values.size() + 4);
  std::uint32_t previous = 0;
  bool first = true;
  for (const std::uint32_t v : values) {
    if (!first && v <= previous)
      throw std::invalid_argument("encodeMonotone: sequence not strictly increasing");
    varbyteEncode(first ? v : v - previous, out);
    previous = v;
    first = false;
  }
  return out;
}

/// Inverse of encodeMonotone.
inline std::vector<std::uint32_t> decodeMonotone(const std::vector<std::uint8_t>& bytes) {
  std::vector<std::uint32_t> out;
  std::size_t offset = 0;
  std::uint32_t previous = 0;
  bool first = true;
  while (offset < bytes.size()) {
    const auto delta = static_cast<std::uint32_t>(varbyteDecode(bytes, offset));
    previous = first ? delta : previous + delta;
    first = false;
    out.push_back(previous);
  }
  return out;
}

}  // namespace resex
