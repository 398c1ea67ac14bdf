#include "index/varbyte.hpp"

#include <stdexcept>

namespace resex {

void varbyteEncode(std::uint64_t value, std::vector<std::uint8_t>& out) {
  while (value >= 0x80) {
    out.push_back(static_cast<std::uint8_t>(value & 0x7F));
    value >>= 7;
  }
  out.push_back(static_cast<std::uint8_t>(value | 0x80));
}

std::uint64_t varbyteDecode(const std::uint8_t* bytes, std::size_t size,
                            std::size_t& offset) {
  std::uint64_t value = 0;
  unsigned shift = 0;
  for (;;) {
    if (offset >= size)
      throw std::out_of_range("varbyteDecode: truncated input");
    const std::uint8_t byte = bytes[offset++];
    const std::uint64_t payload = byte & 0x7F;
    // A u64 holds at most ten VByte groups, and the tenth contributes only
    // its lowest 64 - 63 = 1 bit. Reject any group whose bits would fall
    // past bit 63 *before* the shift silently discards them — corrupt or
    // hostile bytes must fail loudly, not decode to a wrapped value.
    if (shift >= 64 || (shift > 0 && (payload >> (64 - shift)) != 0))
      throw std::out_of_range("varbyteDecode: value overflow");
    value |= payload << shift;
    if (byte & 0x80) return value;
    shift += 7;
  }
}

std::uint64_t varbyteDecode(const std::vector<std::uint8_t>& bytes,
                            std::size_t& offset) {
  return varbyteDecode(bytes.data(), bytes.size(), offset);
}

}  // namespace resex
