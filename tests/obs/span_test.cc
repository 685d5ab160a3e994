/// Hierarchical span tracing: RAII nesting, parent/child linkage through
/// the thread-local current-span chain, the Chrome trace_event export, the
/// span-tree printer, and the ring sink's non-silent overflow.

#include "obs/span.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <thread>
#include <vector>

#include "obs/metrics.h"
#include "obs/trace.h"

namespace deltamon::obs {
namespace {

/// Installs a ring sink for the test body and restores the previous sink
/// (and the metrics toggle) afterwards, so tests cannot leak a dangling
/// sink into each other.
class SpanTest : public ::testing::Test {
 protected:
  void SetUp() override {
    previous_ = GetTraceSink();
    SetTraceSink(&ring_);
    obs::SetEnabled(true);
  }
  void TearDown() override { SetTraceSink(previous_); }

  RingTraceSink ring_{1024};
  TraceSink* previous_ = nullptr;
};

TEST(SpanNoSinkTest, SpanIsInactiveWithoutASink) {
  ASSERT_EQ(GetTraceSink(), nullptr);
  Span span("test", "idle");
  EXPECT_FALSE(span.active());
  EXPECT_EQ(span.id(), 0u);
  EXPECT_EQ(Span::CurrentId(), 0u);
  span.AddField("ignored", 1);  // must be a harmless no-op
}

TEST_F(SpanTest, EmitsOneEventWithBookkeepingFields) {
  {
    Span span("propagation", "wave");
    EXPECT_TRUE(span.active());
    EXPECT_NE(span.id(), 0u);
    EXPECT_EQ(Span::CurrentId(), span.id());
    span.AddField("tuples", 7);
  }
  EXPECT_EQ(Span::CurrentId(), 0u);
  const std::vector<TraceEvent> events = ring_.Snapshot();
  ASSERT_EQ(events.size(), 1u);
  const TraceEvent& e = events.front();
  EXPECT_TRUE(IsSpanEvent(e));
  EXPECT_EQ(e.category, "propagation");
  EXPECT_EQ(e.name, "wave");
  EXPECT_NE(SpanField(e, "span_id", 0), 0);
  EXPECT_EQ(SpanField(e, "parent_id", -1), 0);
  EXPECT_GE(SpanField(e, "dur_ns", -1), 0);
  EXPECT_EQ(SpanField(e, "tuples", 0), 7);
}

TEST_F(SpanTest, NestedSpansLinkParentToChild) {
  {
    Span outer("rules", "check_phase");
    {
      Span inner("propagation", "wave");
      EXPECT_EQ(Span::CurrentId(), inner.id());
    }
    // Destroying the child must restore the parent as current.
    EXPECT_EQ(Span::CurrentId(), outer.id());
  }
  // Children end (and are recorded) before their parents.
  const std::vector<TraceEvent> events = ring_.Snapshot();
  ASSERT_EQ(events.size(), 2u);
  const TraceEvent& inner = events[0];
  const TraceEvent& outer = events[1];
  EXPECT_EQ(inner.name, "wave");
  EXPECT_EQ(outer.name, "check_phase");
  EXPECT_EQ(SpanField(inner, "parent_id", -1), SpanField(outer, "span_id", 0));
}

TEST_F(SpanTest, SetNameReplacesTheConstructionName) {
  {
    Span span("propagation", "node");
    span.SetName("node:quantity");
  }
  ASSERT_EQ(ring_.Snapshot().size(), 1u);
  EXPECT_EQ(ring_.Snapshot()[0].name, "node:quantity");
}

TEST_F(SpanTest, ConcurrentSpansGetDistinctIdsAndThreads) {
  constexpr int kThreads = 4;
  std::vector<int64_t> ids(kThreads);
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int i = 0; i < kThreads; ++i) {
    threads.emplace_back([i, &ids] {
      Span span("test", "worker");
      ids[i] = static_cast<int64_t>(span.id());
    });
  }
  for (std::thread& t : threads) t.join();
  std::sort(ids.begin(), ids.end());
  EXPECT_EQ(std::adjacent_find(ids.begin(), ids.end()), ids.end())
      << "span ids must be unique across threads";
}

TEST_F(SpanTest, ChromeTraceJsonIsLoadableCompleteEvents) {
  {
    Span outer("rules", "check_phase");
    Span inner("propagation", "wave");
    inner.AddField("base_influents_changed", 2);
  }
  Json doc = ChromeTraceJson(ring_.Snapshot());
  // Round-trip through the parser: the export must be well-formed JSON.
  auto parsed = Json::Parse(doc.Dump());
  ASSERT_TRUE(parsed.ok()) << parsed.status();

  const Json* trace_events = doc.Get("traceEvents");
  ASSERT_NE(trace_events, nullptr);
  ASSERT_EQ(trace_events->size(), 2u);
  for (const Json& e : trace_events->array_items()) {
    EXPECT_EQ(e.Get("ph")->as_string(), "X");
    EXPECT_GE(e.Get("ts")->as_double(), 0.0);  // normalized to min start
    EXPECT_GE(e.Get("dur")->as_double(), 0.0);
    ASSERT_NE(e.Get("args"), nullptr);
    EXPECT_NE(e.Get("args")->Get("span_id"), nullptr);
  }
  // User fields survive into args; bookkeeping stays out of it.
  const Json& wave = trace_events->at(0);
  EXPECT_EQ(wave.Get("name")->as_string(), "wave");
  EXPECT_EQ(wave.Get("args")->Get("base_influents_changed")->as_int(), 2);
  EXPECT_EQ(wave.Get("args")->Get("dur_ns"), nullptr);
}

TEST_F(SpanTest, NonSpanEventsAreSkippedByTheExporter) {
  ring_.OnEvent(TraceEvent{"test", "marker", {{"produced", 3}}});
  { Span span("rules", "round"); }
  Json doc = ChromeTraceJson(ring_.Snapshot());
  EXPECT_EQ(doc.Get("traceEvents")->size(), 1u);
}

TEST_F(SpanTest, FormatSpanTreeIndentsChildrenUnderParents) {
  {
    Span check("rules", "check_phase");
    {
      Span round("rules", "round");
      round.AddField("round", 1);
      { Span wave("propagation", "wave"); }
    }
  }
  std::string tree = FormatSpanTree(ring_.Snapshot());
  EXPECT_NE(tree.find("rules.check_phase "), std::string::npos) << tree;
  EXPECT_NE(tree.find("\n  rules.round "), std::string::npos) << tree;
  EXPECT_NE(tree.find("\n    propagation.wave "), std::string::npos) << tree;
  EXPECT_NE(tree.find("{round=1}"), std::string::npos) << tree;
}

TEST_F(SpanTest, FormatSpanTreePromotesOrphansToRoots) {
  // Simulate a ring that dropped the parent: a span whose parent_id no
  // longer resolves must still print (as a root), not vanish or loop.
  TraceEvent orphan;
  orphan.category = "propagation";
  orphan.name = "node";
  orphan.fields = {{"span_id", 77},
                   {"parent_id", 42},  // never recorded
                   {"thread", 1},
                   {"start_ns", 100},
                   {"dur_ns", 50}};
  ring_.OnEvent(orphan);
  std::string tree = FormatSpanTree(ring_.Snapshot());
  EXPECT_NE(tree.find("propagation.node "), std::string::npos) << tree;
}

TEST_F(SpanTest, FormatSpanTreeOnEmptyRingSaysSo) {
  EXPECT_EQ(FormatSpanTree(ring_.Snapshot()), "(no spans recorded)\n");
}

TEST(RingOverflowTest, OverflowBumpsDroppedEventsAndCounter) {
  obs::SetEnabled(true);
#if DELTAMON_OBS_ENABLED
  uint64_t before = Registry::Global()
                        .GetCounter("obs.trace.dropped_events")
                        ->value();
#endif
  RingTraceSink ring(2);
  for (int i = 0; i < 5; ++i) {
    ring.OnEvent(TraceEvent{"test", "e" + std::to_string(i), {}});
  }
  EXPECT_EQ(ring.Snapshot().size(), 2u);
  EXPECT_EQ(ring.dropped_records(), 3u);
  // The survivors are the most recent events.
  EXPECT_EQ(ring.Snapshot()[0].name, "e3");
  EXPECT_EQ(ring.Snapshot()[1].name, "e4");
#if DELTAMON_OBS_ENABLED
  uint64_t after = Registry::Global()
                       .GetCounter("obs.trace.dropped_events")
                       ->value();
  EXPECT_EQ(after - before, 3u);
#endif
}

TEST(RingOverflowTest, ZeroCapacityDropsEverything) {
  RingTraceSink ring(0);
  ring.OnEvent(TraceEvent{"test", "e", {}});
  EXPECT_TRUE(ring.Snapshot().empty());
  EXPECT_EQ(ring.dropped_records(), 1u);
}

TEST(RingOverflowTest, ClearResetsTheDroppedTally) {
  RingTraceSink ring(1);
  ring.OnEvent(TraceEvent{"test", "a", {}});
  ring.OnEvent(TraceEvent{"test", "b", {}});
  ring.Clear();
  EXPECT_TRUE(ring.Snapshot().empty());
  EXPECT_EQ(ring.dropped_records(), 0u);
  EXPECT_EQ(ring.total_records(), 0u);
}

}  // namespace
}  // namespace deltamon::obs
