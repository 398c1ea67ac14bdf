#include "lns/portfolio.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <future>
#include <memory>
#include <thread>
#include <vector>

#include "workload/synthetic.hpp"

namespace resex {
namespace {

PortfolioConfig fastPortfolio(std::size_t searches) {
  PortfolioConfig config;
  config.searches = searches;
  config.baseSeed = 31;
  config.lns.maxIterations = 800;
  config.lns.timeBudgetSeconds = 20.0;
  return config;
}

TEST(Portfolio, RunsRequestedSearches) {
  const Instance inst = tinyTestInstance(91, 6, 60, 2, 0.65);
  const Objective obj(inst.exchangeCount());
  const PortfolioResult result = solvePortfolio(inst, obj, fastPortfolio(4));
  EXPECT_EQ(result.perSearchBottleneck.size(), 4u);
  EXPECT_LT(result.winner, 4u);
}

TEST(Portfolio, WinnerIsBestOfAllSearches) {
  const Instance inst = tinyTestInstance(93, 6, 60, 2, 0.65);
  const Objective obj(inst.exchangeCount());
  const PortfolioResult result = solvePortfolio(inst, obj, fastPortfolio(5));
  for (const double b : result.perSearchBottleneck)
    EXPECT_LE(result.best.bestScore.bottleneckUtil, b + 1e-9);
}

TEST(Portfolio, BestIsValidSolution) {
  const Instance inst = tinyTestInstance(97, 6, 60, 2, 0.65);
  const Objective obj(inst.exchangeCount());
  const PortfolioResult result = solvePortfolio(inst, obj, fastPortfolio(3));
  Assignment best(inst, result.best.bestMapping);
  EXPECT_TRUE(best.validate(/*requireCapacity=*/true).empty());
  EXPECT_GE(best.vacantCount(), inst.exchangeCount());
}

TEST(Portfolio, DeterministicForSeedSet) {
  const Instance inst = tinyTestInstance(101, 6, 48, 2, 0.6);
  const Objective obj(inst.exchangeCount());
  const PortfolioResult a = solvePortfolio(inst, obj, fastPortfolio(3));
  const PortfolioResult b = solvePortfolio(inst, obj, fastPortfolio(3));
  EXPECT_EQ(a.best.bestMapping, b.best.bestMapping);
  EXPECT_EQ(a.winner, b.winner);
}

TEST(Portfolio, ZeroSearchesMeansHardwareCount) {
  const Instance inst = tinyTestInstance(103, 5, 30, 1, 0.6);
  const Objective obj(inst.exchangeCount());
  PortfolioConfig config = fastPortfolio(0);
  config.lns.maxIterations = 100;
  const PortfolioResult result = solvePortfolio(inst, obj, config);
  EXPECT_GE(result.perSearchBottleneck.size(), 1u);
}

TEST(Portfolio, MultiStartAtLeastAsGoodAsSingle) {
  const Instance inst = tinyTestInstance(107, 8, 96, 2, 0.75);
  const Objective obj(inst.exchangeCount());
  const PortfolioResult multi = solvePortfolio(inst, obj, fastPortfolio(6));
  PortfolioConfig single = fastPortfolio(1);
  const PortfolioResult one = solvePortfolio(inst, obj, single);
  // Seed 1 of the portfolio equals the single run, so multi can only match
  // or beat it.
  EXPECT_LE(multi.best.bestScore.bottleneckUtil,
            one.best.bestScore.bottleneckUtil + 1e-9);
}

/// Destroy operator that fans work out to its own short-lived threads every
/// call: nested parallelism inside each search, which must not be able to
/// block the portfolio.
class FanOutDestroy final : public DestroyOperator {
 public:
  std::string_view name() const noexcept override { return "fan-out"; }
  void destroyInto(Assignment& assignment, std::size_t quota, Rng& rng,
                   Ruin& out) override {
    std::atomic<std::size_t> counter{0};
    std::vector<std::thread> workers;
    for (int w = 0; w < 4; ++w)
      workers.emplace_back([&counter] {
        for (int i = 0; i < 1024; ++i) counter.fetch_add(1, std::memory_order_relaxed);
      });
    for (std::thread& t : workers) t.join();
    ASSERT_EQ(counter.load(), 4096u);
    const std::size_t n = assignment.instance().shardCount();
    std::size_t guard = 0;
    while (out.size() < quota && guard++ < quota * 8 + 16) {
      const auto s = static_cast<ShardId>(rng.below(n));
      if (assignment.isAssigned(s)) out.take(assignment, s);
    }
  }
};

TEST(Portfolio, PoolUsingSearchesCompleteUnderWatchdog) {
  const Instance inst = tinyTestInstance(111, 6, 48, 2, 0.6);
  const Objective obj(inst.exchangeCount());
  PortfolioConfig config;
  // More searches than hardware threads, each fanning out further: an
  // oversubscribed portfolio must still finish.
  config.searches =
      std::max<std::size_t>(1, std::thread::hardware_concurrency()) + 2;
  config.baseSeed = 7;
  config.lns.maxIterations = 50;
  config.lns.timeBudgetSeconds = 20.0;
  config.configure = [](LnsSolver& solver) {
    solver.addDestroy(std::make_unique<FanOutDestroy>());
  };

  std::packaged_task<PortfolioResult()> task(
      [&] { return solvePortfolio(inst, obj, config); });
  std::future<PortfolioResult> done = task.get_future();
  std::thread runner(std::move(task));
  // Watchdog: a deadlock must fail the test, not hang the suite.
  if (done.wait_for(std::chrono::seconds(60)) != std::future_status::ready) {
    runner.detach();
    FAIL() << "portfolio deadlocked under nested fan-out";
  }
  runner.join();
  const PortfolioResult result = done.get();
  EXPECT_EQ(result.perSearchBottleneck.size(), config.searches);
}

TEST(Portfolio, ConfigureHookRunsOncePerSearch) {
  const Instance inst = tinyTestInstance(113, 5, 30, 1, 0.6);
  const Objective obj(inst.exchangeCount());
  PortfolioConfig config = fastPortfolio(4);
  config.lns.maxIterations = 50;
  auto calls = std::make_shared<std::atomic<std::size_t>>(0);
  config.configure = [calls](LnsSolver&) { calls->fetch_add(1); };
  const PortfolioResult result = solvePortfolio(inst, obj, config);
  EXPECT_EQ(calls->load(), 4u);
  EXPECT_EQ(result.perSearchBottleneck.size(), 4u);
}

}  // namespace
}  // namespace resex
