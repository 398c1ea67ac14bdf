// query_bench — the block-based query kernel against the seed kernel it
// replaced: flat VByte postings decoded in full per query into an
// unordered_map accumulator (reproduced here verbatim in spirit as the
// "old path", self-contained so the comparison survives the old code's
// deletion).
//
// Three measurements, all on the serve_bench-scale corpus:
//
//   * Decode throughput: postings/second for full-list decode, old flat
//     VByte vs the bit-packed block codec.
//   * End-to-end query throughput: QPS over one shared Zipf trace for the
//     old TAAT kernel vs the served MaxScore kernel (DAAT; the library's
//     TAAT oracle for context). The served kernel runs through a
//     caller-owned QueryScratch, so the measured loop is allocation-free.
//   * Skipping: blocks decoded vs skipped-undecoded, heap-threshold
//     prunes, and the fraction of postings the served kernel actually
//     scanned relative to the exhaustive baseline.
//
// Every served result is checked for exact equivalence (identical ids,
// scores within 1e-9) against the old kernel. Emits BENCH_query.json;
// --check exits nonzero unless disjunctive throughput improved by the
// gate factor (default 2x) AND every query matched.
//
// Two further phases cover the storage layer:
//
//   * SIMD unpack: full-block decode throughput with the dispatcher pinned
//     to the scalar kernel vs the host's SIMD backend. --check requires
//     the SIMD backend to be >= --simd-min-speedup (default 2x) faster
//     when one is available.
//   * Segment: the index is written to an on-disk segment file, its page
//     cache dropped, and reopened zero-copy via mmap — cold map+validate
//     time, a cold first pass over the trace, warm QPS on the mapped
//     index, and bit-exact equivalence against the in-RAM index (gated).

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <span>
#include <unordered_map>
#include <vector>

#include "flat_vbyte.hpp"
#include "index/partition.hpp"
#include "index/segment.hpp"
#include "index/simd_unpack.hpp"
#include "util/flags.hpp"
#include "util/json_writer.hpp"
#include "util/timer.hpp"
#include "workload/zipf.hpp"

namespace {

using namespace resex;

// ---- The seed kernel, frozen ------------------------------------------
// Flat VByte per list: delta-coded doc ids (encodeMonotone) and raw VByte
// frequencies, decoded in full on every query; scores accumulate in an
// unordered_map keyed by dense doc index. This is byte-for-byte the seed's
// storage format and algorithm, rebuilt from the live index so both
// kernels score the same corpus.

struct OldPostingList {
  std::vector<std::uint8_t> docBytes;   // encodeMonotone over dense indices
  std::vector<std::uint8_t> freqBytes;  // VByte term frequencies
  std::size_t count = 0;
};

struct OldIndex {
  std::vector<OldPostingList> postings;
  std::size_t bytes = 0;
};

OldIndex buildOldIndex(const InvertedIndex& index) {
  OldIndex old;
  old.postings.resize(index.termCount());
  std::vector<DocId> docs;
  std::vector<std::uint32_t> freqs;
  for (TermId t = 0; t < index.termCount(); ++t) {
    index.postings(t).decode(docs, freqs);
    OldPostingList& list = old.postings[t];
    list.count = docs.size();
    list.docBytes = encodeMonotone(docs);
    for (const std::uint32_t f : freqs) varbyteEncode(f, list.freqBytes);
    old.bytes += list.docBytes.size() + list.freqBytes.size();
  }
  return old;
}

void oldDecode(const OldPostingList& list, std::vector<DocId>& docs,
               std::vector<std::uint32_t>& freqs) {
  docs = decodeMonotone(list.docBytes);
  freqs.clear();
  freqs.reserve(list.count);
  std::size_t offset = 0;
  for (std::size_t i = 0; i < list.count; ++i)
    freqs.push_back(static_cast<std::uint32_t>(varbyteDecode(list.freqBytes, offset)));
}

std::vector<ScoredDoc> oldTopK(const OldIndex& old, const InvertedIndex& index,
                               const std::vector<TermId>& terms, std::size_t k,
                               const Bm25Params& params, std::size_t* scanned) {
  std::vector<TermId> unique(terms);
  std::sort(unique.begin(), unique.end());
  unique.erase(std::unique(unique.begin(), unique.end()), unique.end());

  std::unordered_map<DocId, double> acc;
  std::vector<DocId> docs;
  std::vector<std::uint32_t> freqs;
  for (const TermId t : unique) {
    const OldPostingList& list = old.postings[t];
    if (list.count == 0) continue;
    oldDecode(list, docs, freqs);
    if (scanned) *scanned += docs.size();
    const double idf = bm25Idf(index.documentCount(), list.count);
    for (std::size_t i = 0; i < docs.size(); ++i)
      acc[docs[i]] += bm25TermScore(idf, freqs[i], index.docLength(docs[i]),
                                    index.averageDocLength(), params);
  }

  std::vector<ScoredDoc> scored;
  scored.reserve(acc.size());
  for (const auto& [dense, score] : acc)
    scored.push_back(ScoredDoc{index.docId(dense), score});
  std::sort(scored.begin(), scored.end(), [](const ScoredDoc& a, const ScoredDoc& b) {
    if (a.score != b.score) return a.score > b.score;
    return a.doc < b.doc;
  });
  if (scored.size() > k) scored.resize(k);
  return scored;
}

// -----------------------------------------------------------------------

bool sameResults(std::span<const ScoredDoc> a, const std::vector<ScoredDoc>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i)
    if (a[i].doc != b[i].doc || std::abs(a[i].score - b[i].score) > 1e-9)
      return false;
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  Flags flags;
  flags.define("docs", "40000", "documents in the corpus")
      .define("terms", "6000", "vocabulary size")
      .define("queries", "2000", "queries in the trace")
      .define("topk", "10", "results per query")
      .define("stopwords", "20", "head terms excluded from queries")
      .define("reps", "3", "timed repetitions of the trace per kernel")
      .define("min-speedup", "2.0", "--check: required old->MaxScore QPS factor")
      .define("simd-min-speedup", "2.0",
              "--check: required scalar->SIMD full-block decode factor "
              "(skipped when the host has no SIMD backend)")
      .define("out", "BENCH_query.json", "result JSON path")
      .define("check", "false", "exit nonzero unless gates pass")
      .define("seed", "2020", "random seed");
  flags.parse(argc, argv);
  if (flags.helpRequested()) {
    std::cout << flags.helpText("query_bench");
    return 0;
  }

  SyntheticDocConfig docConfig;
  docConfig.seed = static_cast<std::uint64_t>(flags.integer("seed"));
  docConfig.docCount = static_cast<std::uint32_t>(flags.integer("docs"));
  docConfig.termCount = static_cast<std::uint32_t>(flags.integer("terms"));
  docConfig.termExponent = 1.05;
  const auto documents = generateDocuments(docConfig);
  WallTimer buildTimer;
  const InvertedIndex index(docConfig.termCount, documents);
  const double buildSeconds = buildTimer.seconds();
  const OldIndex old = buildOldIndex(index);
  std::printf("== query_bench: MaxScore kernel vs seed flat-VByte TAAT ==\n");
  std::printf("%u docs, %u terms, %zu postings | old %.2f MB flat VByte, "
              "new %.2f MB block codec (built in %.2fs)\n\n",
              docConfig.docCount, docConfig.termCount, index.totalPostings(),
              static_cast<double>(old.bytes) / 1e6,
              static_cast<double>(index.indexBytes()) / 1e6, buildSeconds);

  // -- Decode throughput ------------------------------------------------
  const int decodeReps = 5;
  std::vector<DocId> docs;
  std::vector<std::uint32_t> freqs;
  std::uint64_t checksum = 0;
  WallTimer oldDecodeTimer;
  for (int r = 0; r < decodeReps; ++r)
    for (TermId t = 0; t < index.termCount(); ++t) {
      if (old.postings[t].count == 0) continue;
      oldDecode(old.postings[t], docs, freqs);
      checksum += docs.back() + freqs.back();
    }
  const double oldDecodeSeconds = oldDecodeTimer.seconds();
  WallTimer newDecodeTimer;
  for (int r = 0; r < decodeReps; ++r)
    for (TermId t = 0; t < index.termCount(); ++t) {
      if (index.postings(t).documentCount() == 0) continue;
      index.postings(t).decode(docs, freqs);
      checksum += docs.back() + freqs.back();
    }
  const double newDecodeSeconds = newDecodeTimer.seconds();
  const double decodedPostings =
      static_cast<double>(index.totalPostings()) * decodeReps;
  const double oldDecodeRate = decodedPostings / oldDecodeSeconds;
  const double newDecodeRate = decodedPostings / newDecodeSeconds;
  std::printf("decode  | old %.1f Mpostings/s, new %.1f Mpostings/s "
              "(%.2fx) [checksum %llu]\n",
              oldDecodeRate / 1e6, newDecodeRate / 1e6,
              newDecodeRate / oldDecodeRate,
              static_cast<unsigned long long>(checksum));

  // -- SIMD unpack: the bit-packed planes of every full block (deltas at
  //    docBits, frequencies at freqBits — the exact bytes and widths the
  //    corpus stores), pinned scalar vs the host's SIMD backend ----------
  const UnpackBackend simdBackend = activeUnpackBackend();
  struct FullBlockPlanes {
    const std::uint8_t* base;  // block payload start
    unsigned docBits;
    unsigned freqBits;
  };
  std::vector<FullBlockPlanes> fullBlocks;
  for (TermId t = 0; t < index.termCount(); ++t) {
    const BlockPostingList& list = index.postings(t);
    for (std::size_t b = 0; b < list.blockCount(); ++b) {
      const PostingBlockMeta& meta = list.block(b);
      if (meta.count == kPostingBlockSize)
        fullBlocks.push_back({list.payload().data() + meta.dataOffset,
                              meta.docBits, meta.freqBits});
    }
  }
  std::uint32_t blockScratch[kPostingBlockSize];
  const int unpackReps = 40;
  const auto timeFullBlocks = [&] {
    std::uint64_t unpacked = 0;
    WallTimer timer;
    for (int r = 0; r < unpackReps; ++r)
      for (const FullBlockPlanes& block : fullBlocks) {
        unpackBits(block.base, 0, kPostingBlockSize - 1, block.docBits,
                   blockScratch);
        unpackBits(block.base, (kPostingBlockSize - 1) * block.docBits,
                   kPostingBlockSize, block.freqBits, blockScratch);
        unpacked += 2 * kPostingBlockSize - 1;
      }
    const double seconds = timer.seconds();
    checksum += blockScratch[kPostingBlockSize - 1];
    return static_cast<double>(unpacked) / seconds;
  };
  setUnpackBackend(UnpackBackend::kScalar);
  const double scalarUnpackRate = timeFullBlocks();
  setUnpackBackend(simdBackend);
  const double simdUnpackRate = timeFullBlocks();
  const double simdSpeedup = simdUnpackRate / scalarUnpackRate;
  const bool simdActive = simdBackend != UnpackBackend::kScalar;
  std::printf("unpack  | %zu full blocks | scalar %.1f Mvalues/s, %s "
              "%.1f Mvalues/s (%.2fx)\n",
              fullBlocks.size(), scalarUnpackRate / 1e6,
              unpackBackendName(simdBackend), simdUnpackRate / 1e6, simdSpeedup);

  // -- Shared trace (serve_bench shape: 2-term Zipf below the stopword
  //    head, so no single query is dominated by a degenerate head list) --
  const auto queryCount = static_cast<std::size_t>(flags.integer("queries"));
  const auto k = static_cast<std::size_t>(flags.integer("topk"));
  const auto stopwords =
      std::min(static_cast<std::uint64_t>(flags.integer("stopwords")),
               static_cast<std::uint64_t>(docConfig.termCount) - 1);
  const ZipfSampler termPick(docConfig.termCount - stopwords, 0.9);
  Rng traceRng(docConfig.seed + 101);
  std::vector<std::vector<TermId>> trace(queryCount);
  for (auto& query : trace)
    for (int i = 0; i < 2; ++i)
      query.push_back(
          static_cast<TermId>(stopwords + termPick.sample(traceRng) - 1));
  const Bm25Params params;
  const auto reps = static_cast<int>(flags.integer("reps"));

  // -- Equivalence + skipping stats (untimed pass) ----------------------
  QueryScratch scratch;
  ExecStats daatStats;
  std::size_t oldScanned = 0;
  std::size_t mismatches = 0;
  for (const auto& query : trace) {
    const auto reference = oldTopK(old, index, query, k, params, &oldScanned);
    const auto fast = topKDisjunctiveInto(index, query, k, params, scratch, &daatStats);
    if (!sameResults(fast, reference)) ++mismatches;
  }
  const double skipRatio =
      daatStats.blocksDecoded + daatStats.blocksSkipped > 0
          ? static_cast<double>(daatStats.blocksSkipped) /
                static_cast<double>(daatStats.blocksDecoded + daatStats.blocksSkipped)
          : 0.0;
  const double scannedFraction =
      oldScanned > 0 ? static_cast<double>(daatStats.postingsScanned) /
                           static_cast<double>(oldScanned)
                     : 1.0;
  std::printf("skip    | %llu blocks decoded, %llu skipped undecoded "
              "(%.1f%%), %llu heap prunes | MaxScore scanned %.1f%% of the "
              "exhaustive postings\n",
              static_cast<unsigned long long>(daatStats.blocksDecoded),
              static_cast<unsigned long long>(daatStats.blocksSkipped),
              skipRatio * 100.0,
              static_cast<unsigned long long>(daatStats.heapThresholdPrunes),
              scannedFraction * 100.0);
  std::printf("equiv   | %zu/%zu queries identical to the seed kernel\n",
              queryCount - mismatches, queryCount);

  // -- End-to-end QPS ---------------------------------------------------
  const auto timeTrace = [&](auto&& runQuery) {
    runQuery(trace[0]);  // warm caches and scratch before the clock starts
    WallTimer timer;
    for (int r = 0; r < reps; ++r)
      for (const auto& query : trace) runQuery(query);
    return static_cast<double>(queryCount) * reps / timer.seconds();
  };
  double sink = 0.0;
  const double oldQps = timeTrace([&](const std::vector<TermId>& q) {
    const auto result = oldTopK(old, index, q, k, params, nullptr);
    if (!result.empty()) sink += result[0].score;
  });
  const double daatQps = timeTrace([&](const std::vector<TermId>& q) {
    const auto result = topKDisjunctiveInto(index, q, k, params, scratch);
    if (!result.empty()) sink += result[0].score;
  });
  const double taatQps = timeTrace([&](const std::vector<TermId>& q) {
    const auto result = topKDisjunctiveTaat(index, q, k, params);
    if (!result.empty()) sink += result[0].score;
  });
  const double speedup = daatQps / oldQps;
  std::printf("qps     | old %.0f, MaxScore %.0f (%.2fx), taat %.0f [sink %.3f]\n",
              oldQps, daatQps, speedup, taatQps, sink);

  // -- Segment: write to disk, reopen cold via mmap, serve warm ---------
  const std::string segPath =
      (std::filesystem::temp_directory_path() / "query_bench.seg").string();
  WallTimer segWriteTimer;
  const std::uint64_t segBytes = writeSegment(index, segPath);
  const double segWriteSeconds = segWriteTimer.seconds();
  {
    // Drop the file's clean page-cache pages so the load below actually
    // faults from disk — "cold" is real, not write-back-warm.
    const int fd = ::open(segPath.c_str(), O_RDONLY);
    if (fd >= 0) {
      ::posix_fadvise(fd, 0, 0, POSIX_FADV_DONTNEED);
      ::close(fd);
    }
  }
  WallTimer segLoadTimer;
  const InvertedIndex mapped(std::make_shared<const MappedSegment>(segPath));
  const double segLoadSeconds = segLoadTimer.seconds();
  WallTimer segColdTimer;
  for (const auto& query : trace) {
    const auto result = topKDisjunctiveInto(mapped, query, k, params, scratch);
    if (!result.empty()) sink += result[0].score;
  }
  const double segColdQps =
      static_cast<double>(queryCount) / segColdTimer.seconds();
  std::size_t segMismatches = 0;
  {
    QueryScratch mappedScratch;
    for (const auto& query : trace) {
      const auto viaSegment =
          topKDisjunctiveInto(mapped, query, k, params, mappedScratch);
      const std::vector<ScoredDoc> copy(viaSegment.begin(), viaSegment.end());
      const auto viaRam = topKDisjunctiveInto(index, query, k, params, scratch);
      if (!sameResults(viaRam, copy)) ++segMismatches;
    }
  }
  const bool segIdentical = segMismatches == 0;
  const double segWarmQps = timeTrace([&](const std::vector<TermId>& q) {
    const auto result = topKDisjunctiveInto(mapped, q, k, params, scratch);
    if (!result.empty()) sink += result[0].score;
  });
  std::printf("segment | %.2f MB written in %.3fs | cold map+validate %.3fs, "
              "cold pass %.0f qps, warm %.0f qps (%.2fx of RAM) | %zu/%zu "
              "identical to in-RAM\n\n",
              static_cast<double>(segBytes) / 1e6, segWriteSeconds,
              segLoadSeconds, segColdQps, segWarmQps, segWarmQps / daatQps,
              queryCount - segMismatches, queryCount);
  std::filesystem::remove(segPath);

  // -- JSON + gates -----------------------------------------------------
  const double minSpeedup = flags.real("min-speedup");
  const double simdMinSpeedup = flags.real("simd-min-speedup");
  const bool equivalent = mismatches == 0;
  const bool simdPass = !simdActive || simdSpeedup >= simdMinSpeedup;
  const bool pass =
      equivalent && speedup >= minSpeedup && simdPass && segIdentical;
  JsonWriter json;
  json.beginObject();
  json.key("corpus").beginObject();
  json.field("docs", static_cast<std::uint64_t>(docConfig.docCount));
  json.field("terms", static_cast<std::uint64_t>(docConfig.termCount));
  json.field("postings", static_cast<std::uint64_t>(index.totalPostings()));
  json.field("old_bytes", static_cast<std::uint64_t>(old.bytes));
  json.field("new_bytes", static_cast<std::uint64_t>(index.indexBytes()));
  json.endObject();
  json.key("decode").beginObject();
  json.field("old_postings_per_sec", oldDecodeRate);
  json.field("new_postings_per_sec", newDecodeRate);
  json.field("speedup", newDecodeRate / oldDecodeRate);
  json.endObject();
  json.key("simd_unpack").beginObject();
  json.field("backend", unpackBackendName(simdBackend));
  json.field("full_blocks", static_cast<std::uint64_t>(fullBlocks.size()));
  json.field("scalar_postings_per_sec", scalarUnpackRate);
  json.field("simd_postings_per_sec", simdUnpackRate);
  json.field("speedup", simdSpeedup);
  json.endObject();
  json.key("segment").beginObject();
  json.field("file_bytes", segBytes);
  json.field("write_seconds", segWriteSeconds);
  json.field("cold_load_seconds", segLoadSeconds);
  json.field("cold_pass_qps", segColdQps);
  json.field("warm_qps", segWarmQps);
  json.field("warm_fraction_of_ram", segWarmQps / daatQps);
  json.field("mismatches", static_cast<std::uint64_t>(segMismatches));
  json.field("identical", segIdentical);
  json.endObject();
  json.key("end_to_end").beginObject();
  json.field("queries", static_cast<std::uint64_t>(queryCount));
  json.field("topk", static_cast<std::uint64_t>(k));
  json.field("old_qps", oldQps);
  json.field("daat_qps", daatQps);
  json.field("taat_qps", taatQps);
  json.field("speedup_disjunctive", speedup);
  json.endObject();
  json.key("skipping").beginObject();
  json.field("blocks_decoded", daatStats.blocksDecoded);
  json.field("blocks_skipped", daatStats.blocksSkipped);
  json.field("skip_ratio", skipRatio);
  json.field("heap_threshold_prunes", daatStats.heapThresholdPrunes);
  json.field("postings_scanned_daat", daatStats.postingsScanned);
  json.field("postings_scanned_exhaustive", static_cast<std::uint64_t>(oldScanned));
  json.field("scanned_fraction", scannedFraction);
  json.endObject();
  json.key("equivalence").beginObject();
  json.field("queries_checked", static_cast<std::uint64_t>(queryCount));
  json.field("mismatches", static_cast<std::uint64_t>(mismatches));
  json.field("identical", equivalent);
  json.endObject();
  json.key("check").beginObject();
  json.field("min_speedup", minSpeedup);
  json.field("simd_min_speedup", simdMinSpeedup);
  json.field("simd_gate_active", simdActive);
  json.field("pass", pass);
  json.endObject();
  json.endObject();
  const std::string outPath = flags.str("out");
  std::ofstream(outPath) << json.str() << "\n";
  std::printf("wrote %s\n", outPath.c_str());

  if (flags.boolean("check")) {
    if (!equivalent) {
      std::fprintf(stderr, "CHECK FAILED: %zu/%zu queries diverged from the "
                   "seed kernel\n", mismatches, queryCount);
      return 1;
    }
    if (speedup < minSpeedup) {
      std::fprintf(stderr, "CHECK FAILED: disjunctive speedup %.2fx < "
                   "required %.2fx\n", speedup, minSpeedup);
      return 1;
    }
    if (!simdPass) {
      std::fprintf(stderr, "CHECK FAILED: %s unpack speedup %.2fx < "
                   "required %.2fx\n", unpackBackendName(simdBackend),
                   simdSpeedup, simdMinSpeedup);
      return 1;
    }
    if (!segIdentical) {
      std::fprintf(stderr, "CHECK FAILED: %zu/%zu segment-served queries "
                   "diverged from the in-RAM index\n", segMismatches,
                   queryCount);
      return 1;
    }
    std::printf("CHECK PASSED: %.2fx disjunctive speedup (>= %.2fx), %.2fx "
                "%s unpack, segment round trip identical\n",
                speedup, minSpeedup, simdSpeedup,
                unpackBackendName(simdBackend));
  }
  return 0;
}
