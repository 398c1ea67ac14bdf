#include "index/wand.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "index/partition.hpp"
#include "util/rng.hpp"
#include "workload/zipf.hpp"

namespace resex {
namespace {

struct Fixture {
  SyntheticDocConfig config;
  std::vector<Document> docs;
  InvertedIndex index;

  explicit Fixture(std::uint64_t seed = 41)
      : config{.seed = seed, .docCount = 3000, .termCount = 600, .termExponent = 1.0},
        docs(generateDocuments(config)),
        index(config.termCount, docs) {}
};

void expectSameTopK(const std::vector<ScoredDoc>& pruned,
                    const std::vector<ScoredDoc>& exhaustive) {
  // Exactness criterion: the score at every rank must agree. Doc ids must
  // agree too except where scores tie to within float summation noise —
  // the engines sum per-term contributions in different orders, so
  // equal-scored boundary docs may swap or substitute.
  ASSERT_EQ(pruned.size(), exhaustive.size());
  for (std::size_t i = 0; i < pruned.size(); ++i) {
    EXPECT_NEAR(pruned[i].score, exhaustive[i].score, 1e-9) << "rank " << i;
    if (pruned[i].doc != exhaustive[i].doc) {
      EXPECT_LT(std::abs(pruned[i].score - exhaustive[i].score), 1e-9)
          << "rank " << i << ": different doc without a score tie";
    }
  }
}

TEST(Wand, ExactlyMatchesExhaustiveTopK) {
  Fixture f;
  Rng rng(2);
  const ZipfSampler termPick(f.config.termCount, 0.9);
  for (int q = 0; q < 200; ++q) {
    std::vector<TermId> query;
    const std::size_t len = 1 + rng.below(4);
    for (std::size_t i = 0; i < len; ++i)
      query.push_back(static_cast<TermId>(termPick.sample(rng) - 1));
    expectSameTopK(topKWand(f.index, query, 10, Bm25Params{}),
                   topKDisjunctive(f.index, query, 10, Bm25Params{}));
  }
}

TEST(Wand, MatchesAcrossKValues) {
  Fixture f;
  const std::vector<TermId> query{0, 5, 60};
  for (const std::size_t k : {1u, 5u, 50u, 100000u})
    expectSameTopK(topKWand(f.index, query, k, Bm25Params{}),
                   topKDisjunctive(f.index, query, k, Bm25Params{}));
}

TEST(Wand, SkipsWorkOnSelectiveQueries) {
  Fixture f;
  const std::vector<TermId> query{0, 1};
  ExecStats exhaustive;
  topKDisjunctiveTaat(f.index, query, 10, Bm25Params{}, &exhaustive);
  WandStats stats;
  topKWand(f.index, query, 10, Bm25Params{}, &stats);
  EXPECT_LT(stats.postingsEvaluated, exhaustive.postingsScanned);
  EXPECT_GT(stats.skips, 0u);
}

TEST(Wand, DegenerateInputs) {
  Fixture f;
  EXPECT_TRUE(topKWand(f.index, {}, 10, Bm25Params{}).empty());
  EXPECT_TRUE(topKWand(f.index, {0}, 0, Bm25Params{}).empty());
}

TEST(Wand, WorksWithGlobalStatsInPartitionedSearch) {
  Fixture f;
  const PartitionedIndex part(f.config.termCount, f.docs, 3);
  const std::vector<TermId> query{2, 11};
  std::vector<std::vector<ScoredDoc>> perShard;
  for (std::size_t i = 0; i < part.shardCount(); ++i)
    perShard.push_back(
        topKWand(part.shard(i), query, 10, Bm25Params{}, nullptr, &part.globalStats()));
  expectSameTopK(mergeTopK(perShard, 10),
                 topKDisjunctive(f.index, query, 10, Bm25Params{}));
}

TEST(Hybrid, StrategyHeuristicIsSane) {
  Fixture f;
  // Balanced queries of any length -> MaxScore (see the calibration note
  // in chooseStrategy).
  EXPECT_EQ(chooseStrategy(f.index, {0}), PruningStrategy::MaxScore);
  EXPECT_EQ(chooseStrategy(f.index, {0, 50}), PruningStrategy::MaxScore);
  EXPECT_EQ(chooseStrategy(f.index, {10, 20, 30, 40}), PruningStrategy::MaxScore);
  // Multi-term but one list dwarfs the rest -> WAND.
  TermId tail1 = 0;
  TermId tail2 = 0;
  int found = 0;
  for (TermId t = f.config.termCount; t-- > 0 && found < 2;) {
    const std::size_t df = f.index.documentFrequency(t);
    if (df >= 1 && df <= 3) {
      (found == 0 ? tail1 : tail2) = t;
      ++found;
    }
  }
  if (found == 2 &&
      f.index.documentFrequency(0) >
          8 * (f.index.documentFrequency(tail1) + f.index.documentFrequency(tail2))) {
    EXPECT_EQ(chooseStrategy(f.index, {0, tail1, tail2}), PruningStrategy::Wand);
    EXPECT_EQ(chooseStrategy(f.index, {0, tail1}), PruningStrategy::Wand);
  }
}

TEST(Hybrid, AlwaysMatchesExhaustive) {
  Fixture f;
  Rng rng(5);
  const ZipfSampler termPick(f.config.termCount, 1.1);
  for (int q = 0; q < 100; ++q) {
    std::vector<TermId> query;
    const std::size_t len = 1 + rng.below(4);
    for (std::size_t i = 0; i < len; ++i)
      query.push_back(static_cast<TermId>(termPick.sample(rng) - 1));
    std::size_t evaluated = 0;
    expectSameTopK(topKHybrid(f.index, query, 10, Bm25Params{}, &evaluated),
                   topKDisjunctive(f.index, query, 10, Bm25Params{}));
    EXPECT_GT(evaluated, 0u);
  }
}

}  // namespace
}  // namespace resex
