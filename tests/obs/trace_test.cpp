#include "obs/trace.hpp"

#include <gtest/gtest.h>

#include <chrono>
#include <latch>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "common/mini_json.hpp"

namespace resex::obs {
namespace {

using resex::testing::MiniJson;

class TraceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    TraceRegistry::global().setEnabled(false);
    TraceRegistry::global().clear();
  }
  void TearDown() override {
    TraceRegistry::global().setEnabled(false);
    TraceRegistry::global().clear();
    TraceRegistry::global().setKeepSlowestOf(64);
    TraceRegistry::global().setArenaCapacity(4096);
  }

  static std::string chromeTrace() {
    std::string events;
    TraceRegistry::global().appendChromeEvents(events);
    return "[" + events + "]";
  }
};

TEST_F(TraceTest, DisabledRecordsNothing) {
  {
    RESEX_TRACE_SPAN("test.disabled");
  }
  EXPECT_TRUE(TraceRegistry::global().processSpans().empty());
}

TEST_F(TraceTest, EnabledCapturesNameAndDuration) {
  TraceRegistry::global().setEnabled(true);
  {
    RESEX_TRACE_SPAN("test.outer");
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    { RESEX_TRACE_SPAN("test.inner"); }
  }
  TraceRegistry::global().setEnabled(false);
  const auto events = TraceRegistry::global().processSpans();
  ASSERT_EQ(events.size(), 2u);
  // Sorted by start time: outer opened first.
  EXPECT_STREQ(events[0].name, "test.outer");
  EXPECT_STREQ(events[1].name, "test.inner");
  EXPECT_EQ(events[0].traceId, 0u);
  EXPECT_GE(events[0].durUs, 1000u);
  EXPECT_LE(events[1].startUs + events[1].durUs,
            events[0].startUs + events[0].durUs + 1);
}

TEST_F(TraceTest, ThreadsGetDistinctTids) {
  TraceRegistry::global().setEnabled(true);
  // All four threads hold their arenas at once: live threads never share.
  std::latch allRecorded(4);
  std::vector<std::thread> threads;
  for (int i = 0; i < 4; ++i) {
    threads.emplace_back([&] {
      { RESEX_TRACE_SPAN("test.worker"); }
      allRecorded.arrive_and_wait();
    });
  }
  for (auto& t : threads) t.join();
  TraceRegistry::global().setEnabled(false);
  const auto events = TraceRegistry::global().processSpans();
  ASSERT_EQ(events.size(), 4u);  // arenas keep their spans after thread exit
  std::set<std::uint32_t> tids;
  for (const auto& e : events) tids.insert(e.tid);
  EXPECT_EQ(tids.size(), 4u);
}

TEST_F(TraceTest, RingKeepsMostRecentSpans) {
  TraceRegistry::global().setArenaCapacity(8);
  TraceRegistry::global().setEnabled(true);
  // A fresh thread so the small capacity applies to its arena.
  std::thread([] {
    for (int i = 0; i < 20; ++i) {
      RESEX_TRACE_SPAN("test.wrap");
    }
  }).join();
  TraceRegistry::global().setEnabled(false);
  const auto events = TraceRegistry::global().processSpans();
  EXPECT_EQ(events.size(), 8u);
  // Oldest-first ordering must survive the wrap: starts are monotone.
  for (std::size_t i = 1; i < events.size(); ++i)
    EXPECT_GE(events[i].startUs, events[i - 1].startUs);
}

TEST_F(TraceTest, ExitedThreadArenasAreReused) {
  // Short-lived threads (one per portfolio search) must not each leave an
  // arena behind: an exited thread's arena goes to the next new thread.
  TraceRegistry::global().setEnabled(true);
  const std::size_t before = TraceRegistry::global().arenaCount();
  for (int i = 0; i < 64; ++i)
    std::thread([] { RESEX_TRACE_SPAN("test.short_lived"); }).join();
  TraceRegistry::global().setEnabled(false);
  EXPECT_LE(TraceRegistry::global().arenaCount(), before + 1);
  // The reused arena still holds every span: none was overwritten.
  EXPECT_EQ(TraceRegistry::global().processSpans().size(), 64u);
}

TEST_F(TraceTest, ProcessAndRequestSpansShareTheThreadArena) {
  TraceRegistry& registry = TraceRegistry::global();
  registry.setEnabled(true);
  registry.setKeepSlowestOf(4);
  // Warm-up exemplar, so the next non-forced retire is dropped.
  registry.retire(registry.startTrace(), 1, false);

  { RESEX_TRACE_SPAN("test.process"); }
  const TraceContext kept = registry.startTrace();
  const TraceContext dropped = registry.startTrace();
  {
    ScopedSpan keptRoot(kept, "test.kept.root");
    ScopedSpan droppedRoot(dropped, "test.dropped.root");
    { ScopedSpan child(keptRoot.childContext(), "test.kept.child"); }
    { RESEX_TRACE_SPAN("test.process.inner"); }
  }
  EXPECT_FALSE(registry.retire(dropped, 1, false));
  EXPECT_TRUE(registry.retire(kept, 1000, true, "deadline"));

  // One arena holds all of them.
  std::set<std::string> inArena;
  for (const RichSpan& span : registry.threadArena().spans()) inArena.insert(span.name);
  EXPECT_EQ(inArena, (std::set<std::string>{"test.process", "test.process.inner",
                                            "test.kept.root", "test.kept.child",
                                            "test.dropped.root"}));
  // The kept trace comes back with its own spans only.
  const std::vector<TraceRecord> traces = registry.recentTraces();
  ASSERT_EQ(traces.size(), 2u);  // the exemplar and the kept trace
  const TraceRecord& record = traces.back();
  EXPECT_EQ(record.traceId, kept.traceId);
  std::set<std::string> names;
  for (const RichSpan& span : record.spans) {
    EXPECT_EQ(span.traceId, kept.traceId);
    names.insert(span.name);
  }
  EXPECT_EQ(names, (std::set<std::string>{"test.kept.root", "test.kept.child"}));
}

TEST_F(TraceTest, ChromeExportHasProcessSpansKeptTraceAndTimeline) {
  TraceRegistry& registry = TraceRegistry::global();
  registry.setEnabled(true);
  registry.setKeepSlowestOf(4);
  registry.retire(registry.startTrace(), 1, false);  // warm-up exemplar

  { RESEX_TRACE_SPAN("test.process"); }
  const TraceContext kept = registry.startTrace();
  const TraceContext dropped = registry.startTrace();
  { ScopedSpan span(kept, "test.kept"); }
  { ScopedSpan span(dropped, "test.dropped"); }
  EXPECT_FALSE(registry.retire(dropped, 1, false));
  EXPECT_TRUE(registry.retire(kept, 1000, true, "shed"));
  registry.emitTimeline("test.epoch", nowMicros(), 5);

  const auto flat = MiniJson::flatten(chromeTrace());
  const int size = std::stoi(flat.at("/#size"));
  std::set<std::string> seen;
  for (int i = 0; i < size; ++i) {
    const std::string at = "/" + std::to_string(i);
    seen.insert(flat.at(at + "/name") + "@" + flat.at(at + "/cat"));
    EXPECT_EQ(flat.at(at + "/ph"), "X");
  }
  EXPECT_EQ(seen, (std::set<std::string>{"test.process@resex",
                                         "test.kept@resex.query",
                                         "test.epoch@resex.timeline"}));
  EXPECT_EQ(size, 3);
}

TEST_F(TraceTest, ChromeExportIsValidTraceEventArray) {
  TraceRegistry::global().setEnabled(true);
  { RESEX_TRACE_SPAN("test.export"); }
  TraceRegistry::global().setEnabled(false);
  const auto flat = MiniJson::flatten(chromeTrace());
  EXPECT_EQ(flat.at("/#size"), "1");
  EXPECT_EQ(flat.at("/0/name"), "test.export");
  EXPECT_EQ(flat.at("/0/cat"), "resex");
  EXPECT_EQ(flat.at("/0/ph"), "X");
  EXPECT_EQ(flat.at("/0/pid"), "1");
  EXPECT_NO_THROW(std::stod(flat.at("/0/ts")));
  EXPECT_NO_THROW(std::stod(flat.at("/0/dur")));
}

TEST_F(TraceTest, EmptyExportIsValidEmptyArray) {
  const auto flat = MiniJson::flatten(chromeTrace());
  EXPECT_EQ(flat.at("/#size"), "0");
}

}  // namespace
}  // namespace resex::obs
