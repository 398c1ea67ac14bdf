// Variable-byte (VByte) encoding of unsigned integers — the codec of the
// block codec's partial tail block.
#pragma once

#include <cstdint>
#include <vector>

namespace resex {

/// Appends the VByte encoding of `value` to `out` (7 bits per byte, high
/// bit set on the final byte).
void varbyteEncode(std::uint64_t value, std::vector<std::uint8_t>& out);

/// Decodes one value starting at `offset`; advances `offset` past it.
/// Throws std::out_of_range on truncated input and on encodings whose bits
/// would overflow a u64 (corrupt input must fail, not wrap).
std::uint64_t varbyteDecode(const std::vector<std::uint8_t>& bytes,
                            std::size_t& offset);

/// Raw-buffer overload for decoding out of mapped (untrusted) bytes; `size`
/// is the hard read bound. Same throwing contract as the vector overload.
std::uint64_t varbyteDecode(const std::uint8_t* bytes, std::size_t size,
                            std::size_t& offset);

}  // namespace resex
