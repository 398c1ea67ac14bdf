// The MaxScore kernel ≡ TAAT: topKDisjunctive must return *bit-identical*
// results to the exhaustive term-at-a-time reference — same documents,
// same scores, no tolerance. The kernel records each candidate's per-term
// contributions and sums them in sorted-unique-term order, the order TAAT
// accumulates in, so even floating-point summation agrees.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <numeric>

#include "index/partition.hpp"
#include "index/query_exec.hpp"
#include "util/rng.hpp"
#include "workload/zipf.hpp"

namespace resex {
namespace {

void expectBitIdentical(const std::vector<ScoredDoc>& daat,
                        const std::vector<ScoredDoc>& taat) {
  ASSERT_EQ(daat.size(), taat.size());
  for (std::size_t i = 0; i < daat.size(); ++i) {
    EXPECT_EQ(daat[i].doc, taat[i].doc) << "rank " << i;
    EXPECT_EQ(daat[i].score, taat[i].score) << "rank " << i;
  }
}

/// Kernel vs oracle on one query, optionally under global statistics.
void expectMatchesTaat(const InvertedIndex& index, const std::vector<TermId>& query,
                       std::size_t k, const GlobalStats* global = nullptr) {
  expectBitIdentical(
      topKDisjunctive(index, query, k, Bm25Params{}, nullptr, global),
      topKDisjunctiveTaat(index, query, k, Bm25Params{}, nullptr, global));
}

std::vector<TermId> zipfQuery(Rng& rng, const ZipfSampler& termPick,
                              std::size_t length) {
  std::vector<TermId> query;
  for (std::size_t i = 0; i < length; ++i)
    query.push_back(static_cast<TermId>(termPick.sample(rng) - 1));
  return query;
}

struct Fixture {
  SyntheticDocConfig config;
  std::vector<Document> docs;
  InvertedIndex index;

  explicit Fixture(std::uint64_t seed = 29)
      : config{.seed = seed, .docCount = 3000, .termCount = 600, .termExponent = 1.0},
        docs(generateDocuments(config)),
        index(config.termCount, docs) {}
};

TEST(DaatEquivalence, IdenticalResultsAcrossSeededCorpora) {
  for (const std::uint64_t seed : {101ULL, 102ULL, 103ULL}) {
    SyntheticDocConfig config{
        .seed = seed, .docCount = 2500, .termCount = 500, .termExponent = 1.0};
    const auto docs = generateDocuments(config);
    const InvertedIndex index(config.termCount, docs);
    Rng rng(seed + 7);
    const ZipfSampler termPick(config.termCount, 0.9);
    for (int q = 0; q < 120; ++q) {
      const auto query = zipfQuery(rng, termPick, 1 + rng.below(4));
      for (const std::size_t k : {1u, 10u, 100u}) expectMatchesTaat(index, query, k);
    }
  }
}

TEST(DaatEquivalence, IdenticalUnderGlobalStatsAcrossShards) {
  SyntheticDocConfig config{
      .seed = 203, .docCount = 3000, .termCount = 400, .termExponent = 1.0};
  const auto docs = generateDocuments(config);
  const PartitionedIndex part(config.termCount, docs, 3);
  Rng rng(9);
  const ZipfSampler termPick(config.termCount, 1.0);
  for (int q = 0; q < 60; ++q) {
    const auto query = zipfQuery(rng, termPick, 1 + rng.below(3));
    for (std::size_t s = 0; s < part.shardCount(); ++s)
      expectMatchesTaat(part.shard(s), query, 10, &part.globalStats());
  }
}

TEST(DaatEquivalence, LocalAndGlobalStatsPathsBothMatchTaat) {
  // Local statistics (the ones the lists' block metadata was built with)
  // and a shard scoring under broadcast global statistics take different
  // idfs and length norms; both must agree with the oracle bit for bit.
  SyntheticDocConfig config{.seed = 211, .docCount = 4000, .termCount = 500};
  const auto docs = generateDocuments(config);
  const PartitionedIndex part(config.termCount, docs, 4);
  Rng rng(21);
  const ZipfSampler termPick(config.termCount, 0.9);
  for (int q = 0; q < 40; ++q) {
    const auto query = zipfQuery(rng, termPick, 1 + rng.below(4));
    for (std::size_t s = 0; s < part.shardCount(); ++s) {
      expectMatchesTaat(part.shard(s), query, 10);
      expectMatchesTaat(part.shard(s), query, 10, &part.globalStats());
    }
  }
}

TEST(DaatEquivalence, StaleGlobalStatsFallBackToShardLocalDf) {
  // Regression: a global-stats snapshot whose documentFrequency vector is
  // truncated (stale broadcast, new vocabulary) or zero-filled used to
  // throw out of `documentFrequency.at(t)`. The kernel now degrades to
  // the shard-local df for exactly those terms.
  SyntheticDocConfig config{.seed = 31, .docCount = 1500, .termCount = 300};
  const auto docs = generateDocuments(config);
  const InvertedIndex index(config.termCount, docs);
  const std::vector<TermId> query{1, 150, 299};

  // Whole-index "global" stats with an empty df vector: every term falls
  // back to its local df, which here *is* the global df — results must be
  // identical to scoring without global stats at all.
  GlobalStats stale;
  stale.documentCount = index.documentCount();
  stale.avgDocLength = index.averageDocLength();
  const auto local = topKDisjunctive(index, query, 10, Bm25Params{});
  expectBitIdentical(
      topKDisjunctive(index, query, 10, Bm25Params{}, nullptr, &stale), local);

  // Zero-filled entries (term known but count lost) fall back the same way.
  stale.documentFrequency.assign(config.termCount, 0);
  expectBitIdentical(
      topKDisjunctive(index, query, 10, Bm25Params{}, nullptr, &stale), local);

  // Partially-truncated vector: terms below the cut use the snapshot,
  // terms above fall back; nothing throws. Every path agrees with TAAT.
  const PartitionedIndex part(config.termCount, docs, 2);
  GlobalStats truncated = part.globalStats();
  truncated.documentFrequency.resize(150);
  for (std::size_t s = 0; s < part.shardCount(); ++s)
    expectMatchesTaat(part.shard(s), query, 10, &truncated);
}

TEST(DaatEquivalence, QueriesWithMoreThan64UniqueTerms) {
  // Candidate bookkeeping must not be limited to a 64-bit term mask: the
  // frame limit admits thousands of terms.
  Fixture f;
  const PartitionedIndex part(f.config.termCount, f.docs, 2);
  Rng rng(64);
  for (const std::size_t length : {65u, 130u, 600u}) {
    std::vector<TermId> query(f.config.termCount);
    std::iota(query.begin(), query.end(), TermId{0});
    for (std::size_t i = query.size(); i > 1; --i)
      std::swap(query[i - 1], query[rng.below(i)]);
    query.resize(length);
    for (const std::size_t k : {1u, 10u, 1000u}) {
      expectMatchesTaat(f.index, query, k);
      expectMatchesTaat(part.shard(1), query, k, &part.globalStats());
    }
  }
}

TEST(DaatEquivalence, DuplicateTermsMatchTaat) {
  Fixture f;
  expectMatchesTaat(f.index, {4, 4}, 10);
  expectMatchesTaat(f.index, {90, 3, 90, 3, 3, 17}, 10);
  expectBitIdentical(topKDisjunctive(f.index, {17, 3, 90, 3}, 10, Bm25Params{}),
                     topKDisjunctive(f.index, {3, 17, 90}, 10, Bm25Params{}));
}

TEST(DaatEquivalence, KLargerThanMatchCountReturnsEveryMatch) {
  Fixture f;
  // A rare pair: far fewer matching documents than k.
  TermId a = 0;
  TermId b = 0;
  for (TermId t = f.config.termCount; t-- > 0;) {
    if (f.index.documentFrequency(t) == 0) continue;
    if (b == 0) {
      b = t;
    } else {
      a = t;
      break;
    }
  }
  const std::size_t matches =
      f.index.documentFrequency(a) + f.index.documentFrequency(b);
  const std::size_t k = matches + 10;
  const auto all = topKDisjunctive(f.index, {a, b}, k, Bm25Params{});
  EXPECT_GE(all.size(), std::max(f.index.documentFrequency(a),
                                 f.index.documentFrequency(b)));
  EXPECT_LE(all.size(), matches);
  expectMatchesTaat(f.index, {a, b}, k);
  expectMatchesTaat(f.index, {0, 1, 2}, 100000);
}

TEST(DaatEquivalence, TiedScoresBreakByAscendingDocId) {
  // 400 identical documents score identically on every query, so the
  // top-k boundary falls inside a tie and only the doc-id tie-break
  // decides membership. Ids are dealt out of order to the builder.
  std::vector<Document> docs;
  Rng rng(5);
  for (DocId id = 0; id < 600; ++id) {
    Document d;
    d.id = id * 7 + 3;
    if (id % 3 != 0) {
      d.terms = {1, 2, 2, 3, 5};  // the tied block (400 docs)
    } else {
      for (int i = 0; i < 6; ++i)
        d.terms.push_back(static_cast<TermId>(rng.below(40)));
    }
    docs.push_back(std::move(d));
  }
  for (std::size_t i = docs.size(); i > 1; --i)
    std::swap(docs[i - 1], docs[rng.below(i)]);
  const InvertedIndex index(40, docs);
  for (const std::vector<TermId>& query :
       {std::vector<TermId>{2}, std::vector<TermId>{1, 3}, std::vector<TermId>{2, 5, 9},
        std::vector<TermId>{1, 2, 3, 5}}) {
    for (const std::size_t k : {1u, 10u, 399u, 1000u}) {
      expectMatchesTaat(index, query, k);
      const auto top = topKDisjunctive(index, query, k, Bm25Params{});
      for (std::size_t i = 1; i < top.size(); ++i) {
        if (top[i].score == top[i - 1].score) {
          EXPECT_LT(top[i - 1].doc, top[i].doc);
        }
      }
    }
  }
}

TEST(DaatEquivalence, SkipAndPruneCountersFireOnSelectiveQueries) {
  SyntheticDocConfig config{
      .seed = 47, .docCount = 20000, .termCount = 2000, .termExponent = 1.05};
  const auto docs = generateDocuments(config);
  const InvertedIndex index(config.termCount, docs);
  // A head term paired with a moderately rare one: once the heap fills,
  // the head list turns non-essential and is only probed at the rare
  // list's candidates, so most of its blocks go by undecoded.
  TermId rare = 0;
  for (TermId t = config.termCount; t-- > 0;) {
    const std::size_t df = index.documentFrequency(t);
    if (df >= 10 && df <= 60) {
      rare = t;
      break;
    }
  }
  ASSERT_GT(index.documentFrequency(0), 100 * index.documentFrequency(rare));
  ExecStats daat;
  const auto pruned = topKDisjunctive(index, {0, rare}, 5, Bm25Params{}, &daat);
  ExecStats taat;
  const auto full = topKDisjunctiveTaat(index, {0, rare}, 5, Bm25Params{}, &taat);
  expectBitIdentical(pruned, full);
  EXPECT_GT(daat.blocksSkipped, 0u);
  EXPECT_GT(daat.heapThresholdPrunes, 0u);
  EXPECT_LT(daat.postingsScanned, taat.postingsScanned);
  EXPECT_GT(daat.blocksDecoded, 0u);
}

TEST(DaatEquivalence, IntoVariantReusesOneScratchAcrossQueries) {
  SyntheticDocConfig config{.seed = 53, .docCount = 1200, .termCount = 250};
  const auto docs = generateDocuments(config);
  const InvertedIndex index(config.termCount, docs);
  QueryScratch scratch;
  Rng rng(3);
  const ZipfSampler termPick(config.termCount, 0.9);
  for (int q = 0; q < 80; ++q) {
    const auto query = zipfQuery(rng, termPick, 1 + rng.below(3));
    const auto view = topKDisjunctiveInto(index, query, 10, Bm25Params{}, scratch);
    const std::vector<ScoredDoc> copied(view.begin(), view.end());
    expectBitIdentical(copied, topKDisjunctiveTaat(index, query, 10, Bm25Params{}));
  }
}

TEST(MaxScore, ExactlyMatchesExhaustiveTopK) {
  Fixture f;
  Rng rng(1);
  const ZipfSampler termPick(f.config.termCount, 0.9);
  for (int q = 0; q < 200; ++q)
    expectMatchesTaat(f.index, zipfQuery(rng, termPick, 1 + rng.below(4)), 10);
}

TEST(MaxScore, MatchesAcrossKValues) {
  Fixture f;
  for (const std::size_t k : {1u, 5u, 50u, 100000u})
    expectMatchesTaat(f.index, {0, 3, 77}, k);
}

TEST(MaxScore, PrunesWorkOnSelectiveQueries) {
  Fixture f;
  // Head terms (huge lists) + small k: most candidates are skippable.
  for (const std::vector<TermId>& query :
       {std::vector<TermId>{0, 1, 2}, std::vector<TermId>{0, 1}}) {
    ExecStats exhaustive;
    topKDisjunctiveTaat(f.index, query, 10, Bm25Params{}, &exhaustive);
    ExecStats pruned;
    topKDisjunctive(f.index, query, 10, Bm25Params{}, &pruned);
    EXPECT_LT(pruned.postingsScanned, exhaustive.postingsScanned);
    EXPECT_LT(pruned.candidatesScored, exhaustive.candidatesScored);
    EXPECT_GT(pruned.heapThresholdPrunes, 0u);
  }
}

TEST(MaxScore, HandlesDegenerateInputs) {
  Fixture f;
  ExecStats stats;
  EXPECT_TRUE(topKDisjunctive(f.index, {}, 10, Bm25Params{}, &stats).empty());
  EXPECT_TRUE(topKDisjunctive(f.index, {0}, 0, Bm25Params{}, &stats).empty());
  EXPECT_EQ(stats.postingsScanned, 0u);
  // A term with an empty posting list (if one exists) contributes nothing.
  for (TermId t = f.config.termCount; t-- > 0;) {
    if (f.index.documentFrequency(t) == 0) {
      EXPECT_TRUE(topKDisjunctive(f.index, {t}, 5, Bm25Params{}).empty());
      expectBitIdentical(topKDisjunctive(f.index, {0, t}, 5, Bm25Params{}),
                         topKDisjunctive(f.index, {0}, 5, Bm25Params{}));
      break;
    }
  }
}

TEST(MaxScore, DuplicateTermsDoNotDoubleCount) {
  Fixture f;
  expectBitIdentical(topKDisjunctive(f.index, {4, 4}, 5, Bm25Params{}),
                     topKDisjunctive(f.index, {4}, 5, Bm25Params{}));
}

TEST(MaxScore, WorksWithGlobalStatsInPartitionedSearch) {
  Fixture f;
  for (const std::size_t shards : {3u, 4u}) {
    const PartitionedIndex part(f.config.termCount, f.docs, shards);
    for (const std::vector<TermId>& query :
         {std::vector<TermId>{1, 9, 40}, std::vector<TermId>{2, 11}}) {
      // Per-shard kernel with global stats, merged, vs the same merge of
      // the oracle's per-shard answers.
      std::vector<std::vector<ScoredDoc>> perShard;
      std::vector<std::vector<ScoredDoc>> perShardTaat;
      for (std::size_t i = 0; i < part.shardCount(); ++i) {
        perShard.push_back(topKDisjunctive(part.shard(i), query, 10, Bm25Params{},
                                           nullptr, &part.globalStats()));
        perShardTaat.push_back(topKDisjunctiveTaat(
            part.shard(i), query, 10, Bm25Params{}, nullptr, &part.globalStats()));
      }
      const auto merged = mergeTopK(perShard, 10);
      expectBitIdentical(merged, mergeTopK(perShardTaat, 10));
      // And the scatter-gather answer is the whole-index answer.
      EXPECT_EQ(part.searchTopK(query, 10).size(), merged.size());
      const auto whole = topKDisjunctiveTaat(f.index, query, 10, Bm25Params{});
      ASSERT_EQ(merged.size(), whole.size());
      for (std::size_t i = 0; i < merged.size(); ++i) {
        EXPECT_EQ(merged[i].doc, whole[i].doc) << "rank " << i;
        EXPECT_NEAR(merged[i].score, whole[i].score, 1e-9) << "rank " << i;
      }
    }
  }
}

TEST(MaxScore, ManySeedsAgreeWithExhaustive) {
  for (const std::uint64_t seed : {31ULL, 32ULL, 33ULL}) {
    Fixture f(seed);
    Rng rng(seed);
    const ZipfSampler termPick(f.config.termCount, 1.1);
    for (int q = 0; q < 40; ++q) expectMatchesTaat(f.index, zipfQuery(rng, termPick, 2), 7);
  }
}

// The Wand, BlockMaxWand and Hybrid suites first checked the WAND,
// Block-Max WAND and hybrid kernels. Those kernels are gone; the same
// checks now run on the one served kernel, over the corpora (seeds 41 and
// 51) and queries those suites used, with exact comparisons against TAAT.

/// Per-shard kernel answers under global statistics match the oracle's
/// bit for bit, and their merge is the whole-index answer. The whole
/// index sums its average document length differently, so scores there
/// agree to 1e-9, and a doc may differ only inside such a score tie.
void expectShardsMatchWholeIndex(const Fixture& f, std::size_t shards,
                                 const std::vector<TermId>& query) {
  const PartitionedIndex part(f.config.termCount, f.docs, shards);
  std::vector<std::vector<ScoredDoc>> perShard;
  for (std::size_t i = 0; i < part.shardCount(); ++i) {
    expectMatchesTaat(part.shard(i), query, 10, &part.globalStats());
    perShard.push_back(topKDisjunctive(part.shard(i), query, 10, Bm25Params{}, nullptr,
                                       &part.globalStats()));
  }
  const auto merged = mergeTopK(perShard, 10);
  const auto whole = topKDisjunctiveTaat(f.index, query, 10, Bm25Params{});
  ASSERT_EQ(merged.size(), whole.size());
  for (std::size_t i = 0; i < merged.size(); ++i) {
    EXPECT_NEAR(merged[i].score, whole[i].score, 1e-9) << "rank " << i;
    if (merged[i].doc != whole[i].doc) {
      EXPECT_LT(std::abs(merged[i].score - whole[i].score), 1e-9)
          << "rank " << i << ": different doc without a score tie";
    }
  }
}

TEST(Wand, ExactlyMatchesExhaustiveTopK) {
  Fixture f(41);
  Rng rng(2);
  const ZipfSampler termPick(f.config.termCount, 0.9);
  for (int q = 0; q < 200; ++q)
    expectMatchesTaat(f.index, zipfQuery(rng, termPick, 1 + rng.below(4)), 10);
}

TEST(Wand, MatchesAcrossKValues) {
  Fixture f(41);
  for (const std::size_t k : {1u, 5u, 50u, 100000u})
    expectMatchesTaat(f.index, {0, 5, 60}, k);
}

TEST(Wand, SkipsWorkOnSelectiveQueries) {
  Fixture f(41);
  const std::vector<TermId> query{0, 1};
  ExecStats exhaustive;
  topKDisjunctiveTaat(f.index, query, 10, Bm25Params{}, &exhaustive);
  ExecStats pruned;
  topKDisjunctive(f.index, query, 10, Bm25Params{}, &pruned);
  // Two head lists both stay essential here, so every block is decoded;
  // the work saved is in the documents scored, not the postings decoded.
  EXPECT_LT(pruned.candidatesScored, exhaustive.candidatesScored);
  EXPECT_GT(pruned.heapThresholdPrunes, 0u);
}

TEST(Wand, DegenerateInputs) {
  Fixture f(41);
  EXPECT_TRUE(topKDisjunctive(f.index, {}, 10, Bm25Params{}).empty());
  EXPECT_TRUE(topKDisjunctive(f.index, {0}, 0, Bm25Params{}).empty());
}

TEST(Wand, WorksWithGlobalStatsInPartitionedSearch) {
  Fixture f(41);
  expectShardsMatchWholeIndex(f, 3, {2, 11});
}

TEST(Hybrid, AlwaysMatchesExhaustive) {
  Fixture f(41);
  Rng rng(5);
  const ZipfSampler termPick(f.config.termCount, 1.1);
  for (int q = 0; q < 100; ++q) {
    const auto query = zipfQuery(rng, termPick, 1 + rng.below(4));
    ExecStats stats;
    expectBitIdentical(topKDisjunctive(f.index, query, 10, Bm25Params{}, &stats),
                       topKDisjunctiveTaat(f.index, query, 10, Bm25Params{}));
    EXPECT_GT(stats.candidatesScored, 0u);
  }
}

TEST(BlockMaxWand, ExactlyMatchesExhaustiveTopK) {
  Fixture f(51);
  Rng rng(4);
  const ZipfSampler termPick(f.config.termCount, 0.9);
  for (int q = 0; q < 200; ++q)
    expectMatchesTaat(f.index, zipfQuery(rng, termPick, 1 + rng.below(4)), 10);
}

TEST(BlockMaxWand, MatchesAcrossKValues) {
  Fixture f(51);
  for (const std::size_t k : {1u, 10u, 200u, 100000u})
    expectMatchesTaat(f.index, {0, 5, 60}, k);
}

TEST(BlockMaxWand, SkipsBlocksAndPrunesWorkOnSelectiveQueries) {
  // Larger corpus and vocabulary so head lists span many blocks and the
  // tail holds genuinely rare terms; a rare co-term leaves the head list
  // non-essential, so whole head blocks go by undecoded.
  SyntheticDocConfig config{
      .seed = 47, .docCount = 20000, .termCount = 2000, .termExponent = 1.05};
  const auto docs = generateDocuments(config);
  const InvertedIndex index(config.termCount, docs);
  TermId rare = 0;
  for (TermId t = config.termCount; t-- > 0;) {
    const std::size_t df = index.documentFrequency(t);
    if (df >= 10 && df <= 80) {
      rare = t;
      break;
    }
  }
  ASSERT_GT(index.documentFrequency(0), 20 * index.documentFrequency(rare));
  ExecStats exhaustive;
  topKDisjunctiveTaat(index, {0, rare}, 5, Bm25Params{}, &exhaustive);
  ExecStats pruned;
  topKDisjunctive(index, {0, rare}, 5, Bm25Params{}, &pruned);
  EXPECT_GT(pruned.blocksSkipped, 0u);
  EXPECT_LT(pruned.postingsScanned, exhaustive.postingsScanned);
}

TEST(BlockMaxWand, DegenerateInputs) {
  Fixture f(51);
  EXPECT_TRUE(topKDisjunctive(f.index, {}, 10, Bm25Params{}).empty());
  EXPECT_TRUE(topKDisjunctive(f.index, {0}, 0, Bm25Params{}).empty());
}

TEST(BlockMaxWand, WorksWithGlobalStatsInPartitionedSearch) {
  Fixture f(51);
  expectShardsMatchWholeIndex(f, 3, {2, 11, 30});
}

TEST(BlockMaxWand, ManySeedsAgreeWithExhaustive) {
  for (const std::uint64_t seed : {61ULL, 62ULL, 63ULL}) {
    Fixture f(seed);
    Rng rng(seed);
    const ZipfSampler termPick(f.config.termCount, 1.1);
    for (int q = 0; q < 40; ++q) expectMatchesTaat(f.index, zipfQuery(rng, termPick, 3), 7);
  }
}

}  // namespace
}  // namespace resex
