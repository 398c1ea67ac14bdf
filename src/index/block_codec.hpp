// Block-based posting-list codec: the storage format of the query kernel.
//
// Postings are cut into 128-entry blocks. Full blocks store doc-id deltas
// and frequencies bit-packed at a fixed width chosen per block (the widest
// value decides), which decodes with word-at-a-time shifts — or, when the
// host supports it, SIMD gathers (see simd_unpack.hpp) — instead of the
// per-byte branches of VByte; the final partial block falls back to VByte.
// Every block carries metadata the executor can act on *without decoding
// the block*: first/last doc id (cursor positioning and block skipping),
// max term frequency + min document length (an always-valid BM25 bound),
// and the precomputed maximum BM25 contribution under the index's own
// statistics (the tight bound used when a query scores with local stats).
// This subsumes the former standalone BlockMaxIndex: block-max metadata is
// now an intrinsic part of the posting list.
//
// A list either *owns* its bytes (built in RAM from docs/freqs) or is a
// zero-copy *view* over externally owned bytes — the mmap'd planes of an
// on-disk segment (see segment.hpp). Views are constructed through
// viewOf(), which treats the metadata as untrusted input and validates
// every block invariant against the actual payload extent before a single
// byte is decoded; the decode paths themselves never read past the
// declared payload (the VByte tail is bounds-checked, and bit-packed
// extents are proven exact at validation time).
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <type_traits>
#include <vector>

#include "index/scoring.hpp"

namespace resex {

/// Entries per full block. A power of two keeps block arithmetic cheap;
/// 128 matches the granularity used by SIMD posting codecs and keeps the
/// per-block metadata overhead under 3 bits/posting for long lists.
inline constexpr std::uint32_t kPostingBlockSize = 128;

/// docBits sentinel marking a VByte-encoded tail block.
inline constexpr std::uint8_t kVbyteTailBits = 0xFF;

/// Readable slack bytes every payload must carry past its encoded bytes:
/// the unpack kernels (scalar and SIMD alike) issue unaligned 64-bit loads
/// anchored at a value's first byte. Owning lists append this pad
/// themselves; segment planes pad their tail for the same reason.
inline constexpr std::size_t kPayloadPadBytes = 8;

/// Per-block metadata. This exact layout is also the segment file's
/// on-disk record (little-endian, 64-bit payload offsets from day one), so
/// an mmap'd meta plane is iterated in place — the static_asserts below
/// pin the ABI the format depends on.
struct PostingBlockMeta {
  DocId firstDoc = 0;             // dense id of the block's first posting
  DocId lastDoc = 0;              // dense id of the block's final posting
  std::uint64_t dataOffset = 0;   // byte offset of the block's payload
  std::uint32_t maxTf = 0;        // max term frequency within the block
  std::uint32_t minDocLen = 1;    // min document length within the block
  std::uint16_t count = 0;        // postings in the block (<= kPostingBlockSize)
  std::uint8_t docBits = 0;       // bit width of (delta-1), or kVbyteTailBits
  std::uint8_t freqBits = 0;      // bit width of (freq-1)
  std::uint8_t reserved[4] = {0, 0, 0, 0};
  /// Max of tf*(k1+1)/(tf+norm(len)) over the block's postings, at the
  /// statistics the list was built with. Multiply by a query idf to get a
  /// tight per-block score bound; only valid when the query scores with
  /// the same avgDocLength and Bm25Params. Written and validated as part
  /// of the segment format; the query kernel prunes with whole-list bounds.
  double maxWeight = 0.0;
};

static_assert(sizeof(PostingBlockMeta) == 40,
              "PostingBlockMeta is an on-disk record; its size is part of "
              "the segment format");
static_assert(std::is_trivially_copyable_v<PostingBlockMeta> &&
                  std::is_standard_layout_v<PostingBlockMeta>,
              "PostingBlockMeta must be mmap-able in place");
static_assert(offsetof(PostingBlockMeta, dataOffset) == 8 &&
                  offsetof(PostingBlockMeta, count) == 24 &&
                  offsetof(PostingBlockMeta, maxWeight) == 32,
              "PostingBlockMeta field offsets are part of the segment format");

/// One term's block-compressed posting list.
class BlockPostingList {
 public:
  BlockPostingList() = default;
  /// `docs` strictly increasing dense ids; `freqs` parallel (freqs[i] >= 1).
  /// `docLengths` (indexed by dense id) and `avgDocLength` feed the
  /// per-block score bounds; when absent the bounds assume length 1,
  /// which stays a valid (looser) upper bound. The list owns its bytes.
  BlockPostingList(const std::vector<DocId>& docs,
                   const std::vector<std::uint32_t>& freqs,
                   std::span<const std::uint32_t> docLengths = {},
                   double avgDocLength = 0.0, const Bm25Params& params = {});

  /// Zero-copy view over externally owned (typically mmap'd) planes. The
  /// metadata is untrusted: every block invariant — counts, widths,
  /// monotone doc ranges bounded by `docCount` (every dense id the view
  /// can ever yield is < docCount), and byte-exact payload extents — is
  /// validated against `payloadBytes` before the view is returned; throws
  /// std::invalid_argument on any inconsistency. The caller must keep the
  /// planes alive for the view's lifetime and guarantee kPayloadPadBytes
  /// of readable slack past `payload + payloadBytes`.
  static BlockPostingList viewOf(std::span<const PostingBlockMeta> blocks,
                                 const std::uint8_t* payload,
                                 std::size_t payloadBytes,
                                 std::size_t postingCount,
                                 std::uint32_t docCount);

  // Owning lists hold vectors that back raw view pointers: moves keep the
  // buffers (and so the pointers) alive; copies would silently alias the
  // source's storage, so they are disabled.
  BlockPostingList(BlockPostingList&&) noexcept = default;
  BlockPostingList& operator=(BlockPostingList&&) noexcept = default;
  BlockPostingList(const BlockPostingList&) = delete;
  BlockPostingList& operator=(const BlockPostingList&) = delete;

  std::size_t documentCount() const noexcept { return count_; }
  std::size_t blockCount() const noexcept { return blockCount_; }
  const PostingBlockMeta& block(std::size_t b) const { return blocks_[b]; }
  std::span<const PostingBlockMeta> blocks() const noexcept {
    return {blocks_, blockCount_};
  }
  /// Encoded payload bytes (excluding the read pad).
  std::span<const std::uint8_t> payload() const noexcept {
    return {data_, payloadBytes_};
  }

  /// Decodes one block into caller buffers (capacity >= kPostingBlockSize
  /// each). Returns the number of postings written. The decoded ids are
  /// prefix-summed with 64-bit accumulation and must land exactly on the
  /// block's declared lastDoc — corrupt bytes whose deltas disagree with
  /// the metadata throw std::invalid_argument instead of yielding ids
  /// outside [firstDoc, lastDoc].
  std::uint32_t decodeBlock(std::size_t b, DocId* docs,
                            std::uint32_t* freqs) const;

  /// Decompresses the full list (ids + frequencies).
  void decode(std::vector<DocId>& docs, std::vector<std::uint32_t>& freqs) const;

  /// Compressed payload plus per-block metadata bytes.
  std::size_t byteSize() const noexcept {
    return payloadBytes_ + blockCount_ * sizeof(PostingBlockMeta);
  }

 private:
  // Owning storage; empty for views.
  std::vector<std::uint8_t> ownedData_;        // payload + kPayloadPadBytes
  std::vector<PostingBlockMeta> ownedBlocks_;
  // The decode paths read only through these views (into the owned
  // storage, or into a caller's mapped planes).
  const std::uint8_t* data_ = nullptr;
  const PostingBlockMeta* blocks_ = nullptr;
  std::size_t blockCount_ = 0;
  std::size_t payloadBytes_ = 0;  // encoded bytes, excluding pad
  std::size_t count_ = 0;
};

}  // namespace resex
