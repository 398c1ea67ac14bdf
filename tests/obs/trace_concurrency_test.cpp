// Concurrency hammering for the tracing plane, written for the TSan CI
// job: writers record while readers collect/export, so any missing
// synchronization in the span arenas or the registry shows up as a
// reported race rather than a flaky assertion.
#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "obs/trace.hpp"

namespace resex::obs {
namespace {

TEST(TraceConcurrency, BufferRecordRacesCollectCleanly) {
  SpanArena arena(1, 64);
  std::atomic<bool> stop{false};
  std::thread writer([&] {
    RichSpan span;
    span.name = "test.span";
    while (!stop.load(std::memory_order_relaxed)) {
      ++span.startUs;
      arena.record(span);
    }
  });
  for (int i = 0; i < 200; ++i) {
    const std::vector<RichSpan> events = arena.spans();
    EXPECT_LE(events.size(), 64u);
    for (const RichSpan& e : events) EXPECT_STREQ(e.name, "test.span");
  }
  stop.store(true, std::memory_order_relaxed);
  writer.join();
  arena.clear();
  EXPECT_TRUE(arena.spans().empty());
}

TEST(TraceConcurrency, TracerThreadsRecordWhileExporting) {
  TraceRegistry& registry = TraceRegistry::global();
  registry.clear();
  registry.setArenaCapacity(256);
  registry.setEnabled(true);
  std::atomic<bool> stop{false};
  std::vector<std::thread> writers;
  for (int w = 0; w < 4; ++w)
    writers.emplace_back([&] {
      while (!stop.load(std::memory_order_relaxed)) {
        RESEX_TRACE_SPAN("test.concurrent");
      }
    });
  for (int i = 0; i < 50; ++i) {
    registry.processSpans();
    std::string events;
    registry.appendChromeEvents(events);
  }
  stop.store(true, std::memory_order_relaxed);
  for (std::thread& t : writers) t.join();
  registry.setEnabled(false);
  registry.clear();
  registry.setArenaCapacity(4096);
}

TEST(TraceConcurrency, ArenaWraparoundUnderConcurrentCollect) {
  SpanArena arena(1, 32);
  std::atomic<bool> stop{false};
  std::thread writer([&] {
    std::uint32_t id = 1;
    while (!stop.load(std::memory_order_relaxed)) {
      RichSpan span;
      span.name = "test.wrap";
      span.traceId = 1 + (id % 8);
      span.spanId = id++;
      arena.record(span);
    }
  });
  for (int i = 0; i < 300; ++i) {
    std::vector<RichSpan> out;
    arena.collectTrace(1 + (i % 8), out);
    EXPECT_LE(out.size(), 32u);
    EXPECT_LE(arena.spans().size(), 32u);
  }
  stop.store(true, std::memory_order_relaxed);
  writer.join();
}

TEST(TraceConcurrency, RegistryRetireRacesReaders) {
  TraceRegistry& registry = TraceRegistry::global();
  registry.clear();
  registry.setEnabled(true);
  registry.setKeepSlowestOf(8);
  registry.setTraceCapacity(64);

  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> retired{0};
  std::vector<std::thread> workers;
  for (int w = 0; w < 4; ++w)
    workers.emplace_back([&, w] {
      std::uint64_t i = 0;
      while (!stop.load(std::memory_order_relaxed)) {
        const TraceContext ctx = registry.startTrace();
        {
          ScopedSpan span(ctx, "test.query");
          span.arg("worker", static_cast<double>(w));
        }
        registry.retire(ctx, 10 + (i % 100), (i % 7) == 0, "deadline");
        retired.fetch_add(1, std::memory_order_relaxed);
        ++i;
      }
    });
  std::thread timeline([&] {
    std::uint64_t t = 0;
    while (!stop.load(std::memory_order_relaxed))
      registry.emitTimeline("test.epoch", t++, 1);
  });
  for (int i = 0; i < 100; ++i) {
    registry.recentTraces();
    registry.tracesJson();
    std::string events;
    registry.appendChromeEvents(events);
  }
  stop.store(true, std::memory_order_relaxed);
  for (std::thread& t : workers) t.join();
  timeline.join();

  EXPECT_EQ(registry.tracesKept() + registry.tracesDropped(), retired.load());
  EXPECT_LE(registry.recentTraces().size(), 64u);
  registry.setEnabled(false);
  registry.clear();
  registry.setKeepSlowestOf(64);
  registry.setTraceCapacity(256);
}

}  // namespace
}  // namespace resex::obs
