#include "serve/fair_share.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <optional>
#include <stdexcept>
#include <thread>
#include <utility>
#include <vector>

namespace resex::serve {
namespace {

/// Drains `count` dispatches and returns how many each tenant received.
std::vector<std::size_t> dispatchCounts(FairShareScheduler& scheduler,
                                        std::size_t tenants, std::size_t count) {
  std::vector<std::size_t> got(tenants, 0);
  for (std::size_t i = 0; i < count; ++i) {
    const std::optional<TenantId> next = scheduler.takeNext();
    if (!next) break;
    ++got[*next];
  }
  return got;
}

TEST(FairShareScheduler, DispatchesProportionallyToWeight) {
  FairShareScheduler scheduler({3.0, 1.0});
  for (int i = 0; i < 20; ++i) {
    scheduler.onEnqueue(0);
    scheduler.onEnqueue(1);
  }
  // Both tenants backlogged: over 8 dispatches the 3:1 weights must yield
  // exactly 6:2 (SFQ is deterministic, not merely proportional in the
  // limit).
  const auto got = dispatchCounts(scheduler, 2, 8);
  EXPECT_EQ(got[0], 6u);
  EXPECT_EQ(got[1], 2u);
}

TEST(FairShareScheduler, IdleTenantBanksNoCredit) {
  FairShareScheduler scheduler({1.0, 1.0});
  for (int i = 0; i < 10; ++i) scheduler.onEnqueue(0);
  // Tenant 0 drains alone for a while...
  auto got = dispatchCounts(scheduler, 2, 6);
  EXPECT_EQ(got[0], 6u);
  // ...then tenant 1 wakes with a backlog. Activation catch-up means it
  // rejoins at the current virtual clock instead of its stale zero: equal
  // weights now split dispatches 3:3, not 6:0 to the newcomer.
  for (int i = 0; i < 10; ++i) scheduler.onEnqueue(1);
  got = dispatchCounts(scheduler, 2, 6);
  EXPECT_EQ(got[0], 3u);
  EXPECT_EQ(got[1], 3u);
}

TEST(FairShareScheduler, ValidatesTreeAndTransitions) {
  EXPECT_THROW(FairShareScheduler{std::vector<double>{}}, std::invalid_argument);
  EXPECT_THROW(FairShareScheduler{std::vector<double>{0.0}}, std::invalid_argument);

  FairShareScheduler scheduler({1.0});
  EXPECT_EQ(scheduler.pickNext(), std::nullopt);
  EXPECT_THROW(scheduler.onDequeue(0), std::logic_error);  // dequeue while idle
}

TEST(FairShareQueue, FairAcrossTenantsFifoWithin) {
  FairShareQueue<int> queue(16, {2.0, 1.0});
  for (const int v : {10, 11, 12, 13}) ASSERT_TRUE(queue.push(v, 0));
  for (const int v : {20, 21}) ASSERT_TRUE(queue.push(v, 1));
  EXPECT_EQ(queue.size(), 6u);
  EXPECT_EQ(queue.sizeOf(0), 4u);
  // SFQ with weights 2:1 and ties to the lower index interleaves exactly
  // like this; each tenant's own items stay in arrival order.
  const std::vector<int> expected = {10, 20, 11, 12, 21, 13};
  for (const int want : expected) {
    const std::optional<int> got = queue.pop();
    ASSERT_TRUE(got.has_value());
    EXPECT_EQ(*got, want);
  }
}

TEST(FairShareQueue, GoldenPopOrderForWeights1And2And16) {
  // Pins the exact dispatch order of three tenants built the way the broker
  // builds them (from a TenantRegistry), weights 1, 2 and 16. Items are
  // 100 + i for tenant 0, 200 + i for tenant 1, 300 + i for tenant 2.
  std::vector<TenantSpec> specs(3);
  specs[0].name = "low";
  specs[0].weight = 1.0;
  specs[1].name = "mid";
  specs[1].weight = 2.0;
  specs[2].name = "high";
  specs[2].weight = 16.0;
  const TenantRegistry registry(std::move(specs));
  FairShareQueue<int> queue(64, registry.weights());
  int next[3] = {100, 200, 300};
  const auto push = [&](TenantId t, int count) {
    for (int i = 0; i < count; ++i) ASSERT_TRUE(queue.push(next[t]++, t));
  };
  std::vector<int> popped;
  const auto pop = [&](std::size_t count) {
    for (std::size_t i = 0; i < count; ++i) popped.push_back(*queue.pop());
  };
  push(0, 6);
  push(1, 3);
  pop(5);  // mid drains its three items and goes idle
  EXPECT_EQ(queue.sizeOf(1), 0u);
  push(2, 24);  // high joins at the current virtual clock
  pop(14);      // high's weight 16 takes every slot; low waits
  push(1, 4);   // mid rejoins after idling: no banked credit
  pop(queue.size());
  const std::vector<int> expected = {
      100, 200, 201, 101, 202,                                // low and mid
      300, 301, 302, 303, 304, 305, 306, 307, 308, 309, 310,  // high's burst
      311, 312, 313,                                          // while low waits
      203, 314, 315, 102, 316, 317, 318, 319, 320, 204, 321,  // mid back
      322, 323, 205, 103, 206, 104, 105};
  EXPECT_EQ(popped, expected);
  EXPECT_EQ(queue.size(), 0u);
}

TEST(FairShareQueue, PushUntilRejectsAlreadyExpiredDeadline) {
  FairShareQueue<int> queue(4, {1.0});
  const auto past = std::chrono::steady_clock::now() - std::chrono::milliseconds(1);
  // Room available, deadline already gone: the push must refuse instead of
  // enqueueing work the worker is guaranteed to shed.
  EXPECT_FALSE(queue.pushUntil(1, 0, past));
  EXPECT_EQ(queue.size(), 0u);
  const auto future = std::chrono::steady_clock::now() + std::chrono::seconds(5);
  EXPECT_TRUE(queue.pushUntil(2, 0, future));
  EXPECT_EQ(queue.size(), 1u);
}

TEST(FairShareQueue, PushUntilTimesOutWhenFull) {
  FairShareQueue<int> queue(1, {1.0});
  ASSERT_TRUE(queue.push(1, 0));
  const auto start = std::chrono::steady_clock::now();
  EXPECT_FALSE(queue.pushUntil(
      2, 0, start + std::chrono::milliseconds(30)));
  EXPECT_GE(std::chrono::steady_clock::now() - start,
            std::chrono::milliseconds(25));
  EXPECT_EQ(queue.size(), 1u);
}

TEST(FairShareQueue, CloseDrainsRemainingItemsThenReturnsNull) {
  FairShareQueue<int> queue(8, {1.0, 1.0});
  ASSERT_TRUE(queue.push(1, 0));
  ASSERT_TRUE(queue.push(2, 1));
  queue.close();
  EXPECT_FALSE(queue.push(3, 0));  // closed: new work refused
  EXPECT_TRUE(queue.pop().has_value());
  EXPECT_TRUE(queue.pop().has_value());  // drain-on-close
  EXPECT_EQ(queue.pop(), std::nullopt);
}

TEST(FairShareQueue, BlockedPopWakesOnPush) {
  FairShareQueue<int> queue(4, {1.0});
  std::optional<int> got;
  std::thread consumer([&] { got = queue.pop(); });
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  ASSERT_TRUE(queue.push(42, 0));
  consumer.join();
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(*got, 42);
}

TEST(FairShareQueue, ZeroCapacityIsBumpedToOne) {
  FairShareQueue<int> queue(0, {1.0});
  EXPECT_EQ(queue.capacity(), 1u);
  EXPECT_TRUE(queue.push(7, 0));
  EXPECT_EQ(queue.pop(), 7);
}

TEST(FairShareQueue, PushBlocksWhenFullUntilPop) {
  FairShareQueue<int> queue(1, {1.0});
  ASSERT_TRUE(queue.push(1, 0));
  std::atomic<bool> pushed{false};
  std::thread producer([&] {
    EXPECT_TRUE(queue.push(2, 0));
    pushed.store(true);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_FALSE(pushed.load());  // backpressured on the full queue
  EXPECT_EQ(queue.pop(), 1);    // the pop frees the slot the producer waits on
  producer.join();
  EXPECT_TRUE(pushed.load());
  EXPECT_EQ(queue.pop(), 2);
}

TEST(FairShareQueue, CloseWakesBlockedConsumer) {
  FairShareQueue<int> queue(4, {1.0});
  std::thread consumer([&] { EXPECT_EQ(queue.pop(), std::nullopt); });
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  queue.close();
  consumer.join();
}

TEST(FairShareQueue, TryPushFailsWhenFullOrClosed) {
  // The transport submit path never blocks: a full queue must refuse at
  // once instead of waiting for a slot, and so must a closed one.
  FairShareQueue<int> queue(2, {1.0, 1.0});
  EXPECT_TRUE(queue.tryPush(1, 0));
  EXPECT_TRUE(queue.tryPush(2, 1));
  EXPECT_FALSE(queue.tryPush(3, 0));  // full: capacity is shared by tenants
  EXPECT_EQ(queue.size(), 2u);
  EXPECT_TRUE(queue.pop().has_value());
  EXPECT_TRUE(queue.tryPush(3, 0));   // a pop makes room again
  queue.close();
  EXPECT_TRUE(queue.pop().has_value());
  EXPECT_FALSE(queue.tryPush(4, 0));  // closed, even with room
  EXPECT_EQ(queue.size(), 1u);
}

TEST(FairShareQueue, ConcurrentProducersConsumersDeliverEverything) {
  constexpr int kProducers = 4;
  constexpr int kConsumers = 3;
  constexpr int kPerProducer = 500;
  FairShareQueue<int> queue(16, {2.0, 1.0});
  std::atomic<long> sum{0};
  std::atomic<int> received{0};
  std::vector<std::thread> threads;
  for (int c = 0; c < kConsumers; ++c)
    threads.emplace_back([&] {
      while (auto item = queue.pop()) {
        sum.fetch_add(*item, std::memory_order_relaxed);
        received.fetch_add(1, std::memory_order_relaxed);
      }
    });
  for (int p = 0; p < kProducers; ++p)
    threads.emplace_back([&, p] {
      const auto tenant = static_cast<TenantId>(p % 2);
      for (int i = 0; i < kPerProducer; ++i)
        EXPECT_TRUE(queue.push(p * kPerProducer + i, tenant));
    });
  for (std::size_t t = kConsumers; t < threads.size(); ++t) threads[t].join();
  queue.close();
  for (int c = 0; c < kConsumers; ++c) threads[c].join();
  const int total = kProducers * kPerProducer;
  EXPECT_EQ(received.load(), total);
  EXPECT_EQ(sum.load(), static_cast<long>(total) * (total - 1) / 2);
}

}  // namespace
}  // namespace resex::serve
