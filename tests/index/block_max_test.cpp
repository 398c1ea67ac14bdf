// Block-Max WAND over the intrinsic per-block metadata of the posting
// codec (the standalone BlockMaxIndex this API used to require is gone —
// block-max bounds now live inside every BlockPostingList).

#include "index/block_max.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "index/partition.hpp"
#include "index/wand.hpp"
#include "util/rng.hpp"
#include "workload/zipf.hpp"

namespace resex {
namespace {

struct Fixture {
  SyntheticDocConfig config;
  std::vector<Document> docs;
  InvertedIndex index;

  explicit Fixture(std::uint64_t seed = 51, std::uint32_t docCount = 3000)
      : config{.seed = seed, .docCount = docCount, .termCount = 600, .termExponent = 1.0},
        docs(generateDocuments(config)),
        index(config.termCount, docs) {}
};

void expectSameTopK(const std::vector<ScoredDoc>& pruned,
                    const std::vector<ScoredDoc>& exhaustive) {
  ASSERT_EQ(pruned.size(), exhaustive.size());
  for (std::size_t i = 0; i < pruned.size(); ++i) {
    EXPECT_NEAR(pruned[i].score, exhaustive[i].score, 1e-9) << "rank " << i;
    if (pruned[i].doc != exhaustive[i].doc) {
      EXPECT_LT(std::abs(pruned[i].score - exhaustive[i].score), 1e-9)
          << "rank " << i << ": different doc without a score tie";
    }
  }
}

TEST(BlockMaxWand, ExactlyMatchesExhaustiveTopK) {
  Fixture f;
  Rng rng(4);
  const ZipfSampler termPick(f.config.termCount, 0.9);
  for (int q = 0; q < 200; ++q) {
    std::vector<TermId> query;
    const std::size_t len = 1 + rng.below(4);
    for (std::size_t i = 0; i < len; ++i)
      query.push_back(static_cast<TermId>(termPick.sample(rng) - 1));
    expectSameTopK(topKBlockMaxWand(f.index, query, 10, Bm25Params{}),
                   topKDisjunctiveTaat(f.index, query, 10, Bm25Params{}));
  }
}

TEST(BlockMaxWand, MatchesAcrossKValues) {
  Fixture f;
  const std::vector<TermId> query{0, 5, 60};
  for (const std::size_t k : {1u, 10u, 200u, 100000u})
    expectSameTopK(topKBlockMaxWand(f.index, query, k, Bm25Params{}),
                   topKDisjunctiveTaat(f.index, query, k, Bm25Params{}));
}

TEST(BlockMaxWand, SkipsBlocksAndPrunesWorkOnSelectiveQueries) {
  // Larger corpus and vocabulary so head lists span many blocks and the
  // tail holds genuinely rare terms; a rare co-term gates the pivot and
  // lets whole head blocks go by undecoded.
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
  BlockMaxStats bmw;
  topKBlockMaxWand(index, {0, rare}, 5, Bm25Params{}, &bmw);
  EXPECT_GT(bmw.blockSkips, 0u);
  EXPECT_LT(bmw.postingsEvaluated, exhaustive.postingsScanned);
}

TEST(BlockMaxWand, DegenerateInputs) {
  Fixture f;
  EXPECT_TRUE(topKBlockMaxWand(f.index, {}, 10, Bm25Params{}).empty());
  EXPECT_TRUE(topKBlockMaxWand(f.index, {0}, 0, Bm25Params{}).empty());
}

TEST(BlockMaxWand, WorksWithGlobalStatsInPartitionedSearch) {
  Fixture f;
  const PartitionedIndex part(f.config.termCount, f.docs, 3);
  const std::vector<TermId> query{2, 11, 30};
  std::vector<std::vector<ScoredDoc>> perShard;
  for (std::size_t i = 0; i < part.shardCount(); ++i)
    perShard.push_back(topKBlockMaxWand(part.shard(i), query, 10, Bm25Params{},
                                        nullptr, &part.globalStats()));
  expectSameTopK(mergeTopK(perShard, 10),
                 topKDisjunctiveTaat(f.index, query, 10, Bm25Params{}));
}

TEST(BlockMaxWand, ManySeedsAgreeWithExhaustive) {
  for (const std::uint64_t seed : {61ULL, 62ULL, 63ULL}) {
    Fixture f(seed);
    Rng rng(seed);
    const ZipfSampler termPick(f.config.termCount, 1.1);
    for (int q = 0; q < 40; ++q) {
      std::vector<TermId> query;
      for (std::size_t i = 0; i < 3; ++i)
        query.push_back(static_cast<TermId>(termPick.sample(rng) - 1));
      expectSameTopK(topKBlockMaxWand(f.index, query, 7, Bm25Params{}),
                     topKDisjunctiveTaat(f.index, query, 7, Bm25Params{}));
    }
  }
}

}  // namespace
}  // namespace resex
