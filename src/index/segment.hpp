// On-disk shard segment format: the persisted, mmap-able form of an
// InvertedIndex — the physical file a migration copies and a broker serves
// from without deserializing.
//
// File layout (version 1, strictly little-endian, 4 KiB pages):
//
//   page 0   SegmentHeader   magic, version, endian mark, page size, CRC
//   plane 0  payload         every term's block payload bytes, in term
//                            order, + 8 zero pad bytes (unpack slack)
//   plane 1  meta            PostingBlockMeta[totalBlocks], term order
//   plane 2  doclen          u32 document length per dense doc index
//   plane 3  docid           u32 original doc id per dense doc index
//   plane 4  directory       SegmentTermEntry[termCount]
//   tail     SegmentFooter   global stats (doc count, avg doc length,
//                            BM25 params), the plane table (offset, size,
//                            CRC-32C per plane), file size, CRC, magic
//
// Every plane starts on a page boundary (mmap'd plane pointers are
// naturally aligned and a cursor reads the payload zero-copy) and is
// independently CRC-32C checksummed, so a single flipped byte anywhere is
// pinned to a plane at load time. The footer sits at the very end of the
// file — a streaming writer emits payload bytes as lists arrive and only
// needs the (small) metadata planes in memory.
//
// The reader treats the file as untrusted input: header/footer/plane-table
// validation (with overflow-safe count bounds), per-plane checksums,
// directory coverage checks, full per-term block-metadata validation
// (BlockPostingList::viewOf, which also bounds every doc range below the
// footer's docCount), and a one-shot decode of every block (prefix-summed
// ids must land on each block's declared lastDoc; frequencies must respect
// the block maximum) all run before the first query; any inconsistency
// throws SegmentFormatError. A segment that loads can never hand the query
// kernel an out-of-range doc id.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <vector>

#include "index/block_codec.hpp"

namespace resex {

class InvertedIndex;

inline constexpr std::uint64_t kSegmentMagic = 0x3147455358455352ull;  // "RSEXSEG1"
inline constexpr std::uint32_t kSegmentVersion = 1;
/// Written as 0x01020304 by a little-endian writer; a reader seeing
/// 0x04030201 is looking at a byte-swapped (big-endian) file.
inline constexpr std::uint32_t kSegmentEndianMark = 0x01020304;
inline constexpr std::uint32_t kSegmentPageBytes = 4096;

struct SegmentHeader {
  std::uint64_t magic = kSegmentMagic;
  std::uint32_t version = kSegmentVersion;
  std::uint32_t endianMark = kSegmentEndianMark;
  std::uint32_t pageBytes = kSegmentPageBytes;
  std::uint32_t crc = 0;  ///< CRC-32C of this struct with `crc` zeroed
};
static_assert(sizeof(SegmentHeader) == 24 &&
              std::is_trivially_copyable_v<SegmentHeader>);

/// One plane's entry in the footer's plane table.
struct SegmentPlane {
  std::uint64_t offset = 0;  ///< absolute file offset, page-aligned
  std::uint64_t bytes = 0;   ///< content bytes (pad past this is zero)
  std::uint32_t crc = 0;     ///< CRC-32C over exactly `bytes` bytes
  std::uint32_t reserved = 0;
};
static_assert(sizeof(SegmentPlane) == 24);

enum SegmentPlaneId : std::uint32_t {
  kPlanePayload = 0,
  kPlaneMeta = 1,
  kPlaneDocLen = 2,
  kPlaneDocId = 3,
  kPlaneDirectory = 4,
  kSegmentPlaneCount = 5,
};

/// Name of a plane, for diagnostics ("payload", "meta", ...).
const char* segmentPlaneName(std::uint32_t plane) noexcept;

/// One term's row in the directory plane. 64-bit offsets from day one: a
/// shard's payload plane is not bounded by 4 GiB.
struct SegmentTermEntry {
  std::uint64_t payloadOffset = 0;  ///< into the payload plane
  std::uint64_t payloadBytes = 0;   ///< encoded bytes (excluding pad)
  std::uint64_t blockBegin = 0;     ///< first PostingBlockMeta index
  std::uint32_t blockCount = 0;
  std::uint32_t reserved = 0;
  std::uint64_t postingCount = 0;   ///< == the term's document frequency
};
static_assert(sizeof(SegmentTermEntry) == 40 &&
              std::is_trivially_copyable_v<SegmentTermEntry>);

struct SegmentFooter {
  std::uint32_t termCount = 0;
  std::uint32_t docCount = 0;
  std::uint64_t totalPostings = 0;
  std::uint64_t totalBlocks = 0;
  /// Statistics the lists' block bounds (PostingBlockMeta::maxWeight)
  /// were built with.
  double avgDocLength = 0.0;
  double bm25K1 = 0.0;
  double bm25B = 0.0;
  SegmentPlane planes[kSegmentPlaneCount];
  std::uint64_t fileBytes = 0;  ///< whole file, header through footer
  std::uint32_t crc = 0;        ///< CRC-32C of this struct with `crc` zeroed
  std::uint32_t version = kSegmentVersion;
  std::uint64_t magic = kSegmentMagic;
};
static_assert(sizeof(SegmentFooter) == 192 &&
              std::is_trivially_copyable_v<SegmentFooter>);

/// Any structural problem with a segment file: bad magic/version/endian,
/// checksum mismatch, plane-table or directory inconsistency, or block
/// metadata that disagrees with the checksummed plane sizes.
class SegmentFormatError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Streams an index into a segment file. Payload bytes go straight to disk
/// as lists arrive (checksummed incrementally); only the per-term metadata
/// — block metas and directory rows, a fraction of a percent of the
/// payload — is buffered until finish().
class SegmentWriter {
 public:
  /// Opens `path` (truncating) and writes the header page. `docLengths`
  /// and `docIds` are the dense-index planes; `avgDocLength`/`params` are
  /// the statistics the lists' block bounds were built with.
  SegmentWriter(const std::string& path, std::uint32_t termCount,
                std::span<const std::uint32_t> docLengths,
                std::span<const DocId> docIds, double avgDocLength,
                const Bm25Params& params);
  ~SegmentWriter();

  SegmentWriter(const SegmentWriter&) = delete;
  SegmentWriter& operator=(const SegmentWriter&) = delete;

  /// Appends term `term`'s list. Terms must arrive in ascending order with
  /// no gaps (every term in [0, termCount), empty lists included).
  void addList(TermId term, const BlockPostingList& list);

  /// Writes the remaining planes and the footer, flushes, and closes.
  /// Returns the file's total byte size. The writer is unusable after.
  std::uint64_t finish();

 private:
  void writeRaw(const void* data, std::size_t size);
  void padToPage();

  std::string path_;
  int fd_ = -1;
  std::uint64_t filePos_ = 0;
  std::uint32_t termCount_ = 0;
  TermId nextTerm_ = 0;
  SegmentFooter footer_;
  std::uint64_t payloadCursor_ = 0;  ///< bytes written into the payload plane
  std::uint32_t payloadCrc_ = 0;
  std::vector<PostingBlockMeta> metas_;
  std::vector<SegmentTermEntry> directory_;
  std::vector<std::uint32_t> docLengths_;
  std::vector<DocId> docIds_;
  bool finished_ = false;
};

/// A segment file mapped read-only. Construction validates the entire file
/// (header, footer, plane table, per-plane CRCs, directory coverage,
/// every term's block metadata, and a decode pass over every block) and
/// throws SegmentFormatError on any
/// inconsistency; afterwards postings() returns zero-copy views whose
/// cursors iterate directly over the mapped bytes. Keep the segment alive
/// as long as any view (or index built from it) is in use.
class MappedSegment {
 public:
  explicit MappedSegment(const std::string& path);
  ~MappedSegment();

  MappedSegment(const MappedSegment&) = delete;
  MappedSegment& operator=(const MappedSegment&) = delete;

  const std::string& path() const noexcept { return path_; }
  std::uint64_t fileBytes() const noexcept { return footer_.fileBytes; }
  std::uint32_t termCount() const noexcept { return footer_.termCount; }
  std::uint32_t docCount() const noexcept { return footer_.docCount; }
  std::uint64_t totalPostings() const noexcept { return footer_.totalPostings; }
  double avgDocLength() const noexcept { return footer_.avgDocLength; }
  Bm25Params bm25Params() const noexcept {
    return {footer_.bm25K1, footer_.bm25B};
  }
  std::span<const std::uint32_t> docLengths() const noexcept { return docLengths_; }
  std::span<const DocId> docIds() const noexcept { return docIds_; }
  std::uint64_t documentFrequency(TermId term) const {
    if (term >= footer_.termCount)
      throw std::out_of_range(
          "MappedSegment::documentFrequency: term out of range");
    return directory_[term].postingCount;
  }
  /// Zero-copy view of one term's posting list (re-validated on the way
  /// out — cheap relative to any use of the list).
  BlockPostingList postings(TermId term) const;

  /// Advises the kernel to drop this segment's pages (madvise on the
  /// mapping plus posix_fadvise(POSIX_FADV_DONTNEED) on the file). Called
  /// on a departed source replica after in-flight queries drain, so the
  /// dropped copy's memory actually returns to the system instead of
  /// lingering warm until unmap. Best-effort; never throws.
  void dropPageCache() const noexcept;

 private:
  const std::uint8_t* base() const noexcept {
    return static_cast<const std::uint8_t*>(map_);
  }
  [[noreturn]] void reject(const std::string& what) const;
  void validate();

  std::string path_;
  void* map_ = nullptr;
  std::size_t mapBytes_ = 0;
  SegmentFooter footer_;
  const std::uint8_t* payload_ = nullptr;
  std::span<const PostingBlockMeta> metas_;
  std::span<const std::uint32_t> docLengths_;
  std::span<const DocId> docIds_;
  std::span<const SegmentTermEntry> directory_;
};

/// Writes `index` to `path` as a segment file; returns the file size.
std::uint64_t writeSegment(const InvertedIndex& index, const std::string& path);

}  // namespace resex
