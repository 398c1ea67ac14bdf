
#include "obs/trace.hpp"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/mini_json.hpp"

namespace resex::obs {
namespace {

using resex::testing::MiniJson;

class ContextTest : public ::testing::Test {
 protected:
  void SetUp() override {
    TraceRegistry::global().clear();
    TraceRegistry::global().setEnabled(true);
    TraceRegistry::global().setKeepSlowestOf(64);
  }
  void TearDown() override {
    TraceRegistry::global().setEnabled(false);
    TraceRegistry::global().clear();
    TraceRegistry::global().setKeepSlowestOf(64);
    TraceRegistry::global().setTraceCapacity(256);
    TraceRegistry::global().setArenaCapacity(4096);
  }
};

TEST_F(ContextTest, DefaultContextIsInactive) {
  const TraceContext ctx;
  EXPECT_FALSE(ctx.active());
  EXPECT_EQ(ctx.traceId, 0u);
}

TEST_F(ContextTest, ChildKeepsTraceAndRepointsParent) {
  const TraceContext ctx{42, 7};
  const TraceContext child = ctx.child(99);
  EXPECT_EQ(child.traceId, 42u);
  EXPECT_EQ(child.parentSpanId, 99u);
}

TEST_F(ContextTest, DisabledRegistryHandsOutInertContexts) {
  TraceRegistry::global().setEnabled(false);
  const TraceContext ctx = TraceRegistry::global().startTrace();
  EXPECT_FALSE(ctx.active());
  {
    ScopedSpan span(ctx, "test.inert");
    EXPECT_FALSE(span.active());
  }
  EXPECT_TRUE(TraceRegistry::global().threadArena().spans().empty());
}

TEST_F(ContextTest, StartTraceAllocatesDistinctIds) {
  const TraceContext a = TraceRegistry::global().startTrace();
  const TraceContext b = TraceRegistry::global().startTrace();
  EXPECT_TRUE(a.active());
  EXPECT_TRUE(b.active());
  EXPECT_NE(a.traceId, b.traceId);
  EXPECT_EQ(TraceRegistry::global().tracesStarted(), 2u);
}

TEST_F(ContextTest, ScopedSpanRecordsIntoThreadArenaWithArgs) {
  const TraceContext ctx = TraceRegistry::global().startTrace();
  std::uint32_t spanId = 0;
  {
    ScopedSpan span(ctx, "test.work");
    ASSERT_TRUE(span.active());
    spanId = span.spanId();
    span.arg("items", 12.0);
    span.arg("hit", 1.0);
  }
  std::vector<RichSpan> collected;
  TraceRegistry::global().threadArena().collectTrace(ctx.traceId, collected);
  ASSERT_EQ(collected.size(), 1u);
  EXPECT_STREQ(collected[0].name, "test.work");
  EXPECT_EQ(collected[0].spanId, spanId);
  EXPECT_EQ(collected[0].traceId, ctx.traceId);
  ASSERT_EQ(collected[0].argCount, 2u);
  EXPECT_STREQ(collected[0].args[0].key, "items");
  EXPECT_DOUBLE_EQ(collected[0].args[0].value, 12.0);
}

TEST_F(ContextTest, SpanArgsBeyondCapacityAreDropped) {
  RichSpan span;
  for (std::size_t i = 0; i < kMaxSpanArgs + 4; ++i) span.addArg("k", 1.0);
  EXPECT_EQ(span.argCount, kMaxSpanArgs);
}

TEST_F(ContextTest, TailSamplerWarmupKeepsOneExemplarPerColdGroup) {
  TailSampler sampler(4);
  // No threshold yet: only the first retire of the warmup group is kept.
  EXPECT_TRUE(sampler.shouldKeep(100, false));
  EXPECT_FALSE(sampler.shouldKeep(200, false));
  EXPECT_FALSE(sampler.shouldKeep(300, false));
  EXPECT_FALSE(sampler.shouldKeep(50, false));
  // Threshold is now 300 (slowest of the first group).
  EXPECT_FALSE(sampler.shouldKeep(300, false));
  EXPECT_TRUE(sampler.shouldKeep(301, false));
}

TEST_F(ContextTest, TailSamplerAlwaysKeepsForcedRetires) {
  TailSampler sampler(4);
  for (int i = 0; i < 20; ++i) EXPECT_TRUE(sampler.shouldKeep(1, true));
}

TEST_F(ContextTest, TailSamplerCapsKeepsAtOnePerGroupUnderDrift) {
  TailSampler sampler(4);
  // Warmup group: exemplar + three drops establishes threshold 40.
  EXPECT_TRUE(sampler.shouldKeep(10, false));
  sampler.shouldKeep(20, false);
  sampler.shouldKeep(30, false);
  sampler.shouldKeep(40, false);
  // Monotone drift: every retire beats the previous group's max, but only
  // the first keep of each group of 4 survives (keep rate stays 1/N).
  int kept = 0;
  for (std::uint64_t dur = 100; dur < 100 + 40; ++dur)
    if (sampler.shouldKeep(dur, false)) ++kept;
  EXPECT_EQ(kept, 10);  // 40 retires / group size 4
}

TEST_F(ContextTest, RetireKeepsForcedTraceWithReasonAndSpans) {
  const TraceContext ctx = TraceRegistry::global().startTrace();
  {
    ScopedSpan span(ctx, "test.partition");
    span.arg("partition", 3.0);
  }
  ASSERT_TRUE(TraceRegistry::global().retire(ctx, 1234, /*forceKeep=*/true,
                                             "deadline"));
  const std::vector<TraceRecord> traces = TraceRegistry::global().recentTraces();
  ASSERT_EQ(traces.size(), 1u);
  EXPECT_EQ(traces[0].traceId, ctx.traceId);
  EXPECT_STREQ(traces[0].keepReason, "deadline");
  EXPECT_EQ(traces[0].rootDurUs, 1234u);
  ASSERT_EQ(traces[0].spans.size(), 1u);
  EXPECT_STREQ(traces[0].spans[0].name, "test.partition");
  EXPECT_EQ(TraceRegistry::global().tracesKept(), 1u);
}

TEST_F(ContextTest, DroppedTracesAreNeverPromoted) {
  // keepSlowestOf=2: after the 2-retire warmup group sets threshold=20,
  // an equal-speed query is dropped.
  TraceRegistry::global().setKeepSlowestOf(2);
  const TraceContext warm1 = TraceRegistry::global().startTrace();
  TraceRegistry::global().retire(warm1, 10, false);
  const TraceContext warm2 = TraceRegistry::global().startTrace();
  TraceRegistry::global().retire(warm2, 20, false);
  TraceRegistry::global().clear();

  const TraceContext a = TraceRegistry::global().startTrace();
  { ScopedSpan span(a, "test.dropped"); }
  TraceRegistry::global().setKeepSlowestOf(2);  // resets sampler: cold again
  const TraceContext b = TraceRegistry::global().startTrace();
  TraceRegistry::global().retire(b, 50, false);  // warmup exemplar, kept
  EXPECT_FALSE(TraceRegistry::global().retire(a, 10, false));
  for (const TraceRecord& t : TraceRegistry::global().recentTraces())
    EXPECT_NE(t.traceId, a.traceId);
  EXPECT_GE(TraceRegistry::global().tracesDropped(), 1u);
}

TEST_F(ContextTest, RetainedRingEvictsOldestBeyondCapacity) {
  TraceRegistry::global().setTraceCapacity(3);
  std::vector<std::uint64_t> ids;
  for (int i = 0; i < 5; ++i) {
    const TraceContext ctx = TraceRegistry::global().startTrace();
    ids.push_back(ctx.traceId);
    TraceRegistry::global().retire(ctx, 100 + static_cast<std::uint64_t>(i),
                                   /*forceKeep=*/true, "forced");
  }
  const std::vector<TraceRecord> traces = TraceRegistry::global().recentTraces();
  ASSERT_EQ(traces.size(), 3u);
  EXPECT_EQ(traces.front().traceId, ids[2]);
  EXPECT_EQ(traces.back().traceId, ids[4]);
}

TEST_F(ContextTest, ArenaRingWrapsDroppingOldestSpans) {
  SpanArena arena(1, 4);
  for (std::uint32_t i = 0; i < 10; ++i) {
    RichSpan span;
    span.name = "test.wrap";
    span.traceId = 7;
    span.spanId = i + 1;
    arena.record(span);
  }
  const std::vector<RichSpan> live = arena.spans();
  ASSERT_EQ(live.size(), 4u);
  // Oldest first once wrapped: span ids 7..10 survive.
  EXPECT_EQ(live.front().spanId, 7u);
  EXPECT_EQ(live.back().spanId, 10u);
  std::vector<RichSpan> collected;
  arena.collectTrace(7, collected);
  EXPECT_EQ(collected.size(), 4u);
  collected.clear();
  arena.collectTrace(999, collected);
  EXPECT_TRUE(collected.empty());
}

TEST_F(ContextTest, TimelineEventsBypassSampling) {
  TraceRegistry::global().emitTimeline("controller.epoch", 1000, 250,
                                       {{"epoch", 3.0}});
  const std::vector<RichSpan> events = TraceRegistry::global().timelineEvents();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_STREQ(events[0].name, "controller.epoch");
  EXPECT_EQ(events[0].startUs, 1000u);
  EXPECT_EQ(events[0].durUs, 250u);
  ASSERT_EQ(events[0].argCount, 1u);
  EXPECT_DOUBLE_EQ(events[0].args[0].value, 3.0);
}

TEST_F(ContextTest, TracesJsonRoundTripsThroughParser) {
  const TraceContext ctx = TraceRegistry::global().startTrace();
  {
    ScopedSpan span(ctx, "test.json");
    span.arg("partition", 2.0);
  }
  TraceRegistry::global().retire(ctx, 500, true, "deadline");
  TraceRegistry::global().emitTimeline("executor.phase", 10, 20);
  const auto flat = MiniJson::flatten(TraceRegistry::global().tracesJson());
  EXPECT_EQ(flat.at("traces/0/keep_reason"), "deadline");
  EXPECT_EQ(flat.at("traces/0/root_dur_us"), "500");
  EXPECT_EQ(flat.at("traces/0/spans/0/name"), "test.json");
  EXPECT_EQ(flat.at("traces/0/spans/0/args/partition"), "2");
  EXPECT_EQ(flat.at("timeline/0/name"), "executor.phase");
}

TEST_F(ContextTest, ChromeEventsAppendAsValidJsonArrayBody) {
  const TraceContext ctx = TraceRegistry::global().startTrace();
  { ScopedSpan span(ctx, "test.chrome"); }
  TraceRegistry::global().retire(ctx, 100, true, "forced");
  TraceRegistry::global().emitTimeline("controller.epoch", 5, 6);
  std::string events;
  TraceRegistry::global().appendChromeEvents(events);
  ASSERT_FALSE(events.empty());
  const auto flat = MiniJson::flatten("[" + events + "]");
  // One query span and one timeline event, each a complete "X" event.
  EXPECT_EQ(flat.at("/#size"), "2");
  EXPECT_EQ(flat.at("/0/ph"), "X");
  EXPECT_EQ(flat.at("/1/ph"), "X");
}

TEST_F(ContextTest, ClearDropsTracesTimelineAndArenas) {
  const TraceContext ctx = TraceRegistry::global().startTrace();
  { ScopedSpan span(ctx, "test.clear"); }
  TraceRegistry::global().retire(ctx, 100, true, "forced");
  TraceRegistry::global().emitTimeline("t", 1, 1);
  TraceRegistry::global().clear();
  EXPECT_TRUE(TraceRegistry::global().recentTraces().empty());
  EXPECT_TRUE(TraceRegistry::global().timelineEvents().empty());
  EXPECT_TRUE(TraceRegistry::global().threadArena().spans().empty());
}

}  // namespace
}  // namespace resex::obs
