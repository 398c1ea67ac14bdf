// Zero-allocation acceptance test for the query kernel: once a
// QueryScratch arena is warm, the *Into execution paths must not touch the
// heap. The global operator new is replaced with a counting wrapper
// (linker picks the strong definition in this TU over libstdc++'s weak
// one), and the count must stand still across thousands of queries.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>
#include <vector>

#include "index/partition.hpp"
#include "index/query_exec.hpp"
#include "util/rng.hpp"
#include "workload/zipf.hpp"

namespace {
std::atomic<std::size_t> g_newCalls{0};

void* countedAlloc(std::size_t size) {
  g_newCalls.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}
}  // namespace

void* operator new(std::size_t size) { return countedAlloc(size); }
void* operator new[](std::size_t size) { return countedAlloc(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace resex {
namespace {

struct Fixture {
  SyntheticDocConfig config;
  std::vector<Document> docs;
  InvertedIndex index;
  std::vector<std::vector<TermId>> queries;

  Fixture()
      : config{.seed = 83, .docCount = 4000, .termCount = 800, .termExponent = 1.0},
        docs(generateDocuments(config)),
        index(config.termCount, docs) {
    Rng rng(11);
    const ZipfSampler termPick(config.termCount, 0.9);
    queries.resize(50);
    for (auto& query : queries)
      for (std::size_t i = 0; i < 1 + rng.below(4); ++i)
        query.push_back(static_cast<TermId>(termPick.sample(rng) - 1));
  }
};

TEST(ScratchAlloc, WarmDisjunctivePathAllocatesNothing) {
  Fixture f;
  QueryScratch scratch;
  ExecStats stats;
  double sink = 0.0;
  // Warm-up: grows every arena buffer to steady-state capacity and runs
  // the one-time static registrations (counters, latency histogram).
  for (const auto& query : f.queries) {
    const auto r = topKDisjunctiveInto(f.index, query, 10, Bm25Params{}, scratch,
                                       &stats);
    if (!r.empty()) sink += r[0].score;
  }
  const std::size_t before = g_newCalls.load(std::memory_order_relaxed);
  for (int pass = 0; pass < 20; ++pass)
    for (const auto& query : f.queries) {
      const auto r = topKDisjunctiveInto(f.index, query, 10, Bm25Params{},
                                         scratch, &stats);
      if (!r.empty()) sink += r[0].score;
    }
  const std::size_t after = g_newCalls.load(std::memory_order_relaxed);
  EXPECT_EQ(after, before) << "steady-state disjunctive queries allocated";
  EXPECT_GT(sink, 0.0);
}

TEST(ScratchAlloc, CounterActuallyCounts) {
  // Sanity for the hook itself: an obvious allocation must register.
  const std::size_t before = g_newCalls.load(std::memory_order_relaxed);
  auto* p = new std::vector<int>(256);
  delete p;
  EXPECT_GT(g_newCalls.load(std::memory_order_relaxed), before);
}

}  // namespace
}  // namespace resex
