/// Request tracing primitives: the trace-id mint, phase arithmetic on
/// RequestRecord, the FlightRecorder log with its non-silent dropped
/// counter and its compiled-out empty form, the /debug/requests and
/// Chrome-trace JSON documents, the SlowLog + report formatter, and (when
/// obs is compiled in) the thread-local request trace scope that stamps
/// and routes every span.

#include "obs/flight_recorder.h"

#include <gtest/gtest.h>

#include <set>
#include <string>
#include <thread>
#include <vector>

#include "obs/json.h"
#include "obs/span.h"
#include "obs/trace.h"

namespace deltamon::obs {
namespace {

/// A fully-stamped record with strictly increasing phase timestamps.
RequestRecord MakeRecord(uint64_t trace_id, uint64_t base_ns = 1000) {
  RequestRecord r;
  r.context.trace_id = trace_id;
  r.context.connection_id = 7;
  r.context.session_id = 7;
  r.context.statement_ordinal = trace_id;
  r.statement = "commit;";
  r.reply_flushed = true;
  r.enqueue_ns = base_ns;
  r.dequeue_ns = base_ns + 100;
  r.exec_end_ns = base_ns + 600;
  r.reply_queued_ns = base_ns + 650;
  r.reply_flushed_ns = base_ns + 900;
  r.reply_bytes = 42;
  return r;
}

TEST(TraceIdTest, MintIsMonotonicAndNeverZero) {
  const uint64_t first = NextTraceId();
  EXPECT_GT(first, 0u) << "0 must stay reserved for 'no trace'";
  EXPECT_EQ(NextTraceId(), first + 1);
  EXPECT_EQ(NextTraceId(), first + 2);
}

TEST(TraceIdTest, MonotonicClockAdvances) {
  const uint64_t a = MonotonicNowNs();
  const uint64_t b = MonotonicNowNs();
  EXPECT_GT(a, 0u);
  EXPECT_GE(b, a);
}

TEST(StatementPreviewTest, TruncatesLongStatementsWithEllipsis) {
  EXPECT_EQ(StatementPreview("commit;"), "commit;");
  const std::string longer(kStatementPreviewBytes + 50, 'x');
  const std::string preview = StatementPreview(longer);
  EXPECT_EQ(preview.size(), kStatementPreviewBytes + 3);
  EXPECT_EQ(preview.substr(preview.size() - 3), "...");
}

TEST(RequestRecordTest, PhaseDurationsDecomposeTheTotal) {
  const RequestRecord r = MakeRecord(1);
  EXPECT_EQ(r.QueueWaitNs(), 100u);
  EXPECT_EQ(r.ExecNs(), 500u);
  EXPECT_EQ(r.ReplyWriteNs(), 250u);
  EXPECT_EQ(r.TotalNs(), 900u);
  // The three phases plus the queued->flushed gap account for everything.
  EXPECT_LE(r.QueueWaitNs() + r.ExecNs() + r.ReplyWriteNs(), r.TotalNs());
}

TEST(RequestRecordTest, PhasesClampOnSkewAndMissingStamps) {
  RequestRecord r;
  r.enqueue_ns = 500;
  r.dequeue_ns = 400;  // skew: must clamp to 0, not wrap
  EXPECT_EQ(r.QueueWaitNs(), 0u);
  EXPECT_EQ(r.ExecNs(), 0u);        // never executed
  EXPECT_EQ(r.ReplyWriteNs(), 0u);  // never flushed
  // An aborted request totals to its latest stamped phase.
  r.dequeue_ns = 700;
  r.exec_end_ns = 900;
  EXPECT_EQ(r.TotalNs(), 400u);
}

TEST(RequestRecordTest, ToJsonRoundTripsThroughTheParser) {
  const Json doc = MakeRecord(3).ToJson();
  auto parsed = Json::Parse(doc.Dump());
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  EXPECT_EQ(parsed->Get("trace_id")->as_int(), 3);
  EXPECT_EQ(parsed->Get("statement")->as_string(), "commit;");
  EXPECT_TRUE(parsed->Get("reply_flushed")->as_bool());
  const Json* phases = parsed->Get("phases");
  ASSERT_NE(phases, nullptr);
  EXPECT_EQ(phases->Get("queue_wait_ns")->as_int(), 100);
  EXPECT_EQ(phases->Get("exec_ns")->as_int(), 500);
  EXPECT_EQ(phases->Get("reply_write_ns")->as_int(), 250);
  EXPECT_EQ(phases->Get("total_ns")->as_int(), 900);
}

TEST(FlightRecorderTest, RingEvictsOldestAndCountsDrops) {
  FlightRecorder recorder(/*capacity=*/4);
  for (uint64_t id = 1; id <= 10; ++id) recorder.Record(MakeRecord(id));
  const std::vector<RequestRecord> snapshot = recorder.Snapshot();
  ASSERT_EQ(snapshot.size(), 4u);
  // Oldest-to-newest: the survivors are the most recent four.
  EXPECT_EQ(snapshot.front().context.trace_id, 7u);
  EXPECT_EQ(snapshot.back().context.trace_id, 10u);
  EXPECT_EQ(recorder.total_records(), 10u);
  EXPECT_EQ(recorder.dropped_records(), 6u);
  EXPECT_EQ(recorder.capacity(), 4u);
}

TEST(FlightRecorderTest, ClearResetsTheRingAndTheTallies) {
  // A cleared log is a fresh recording, so every read keeps
  // records == total - dropped.
  FlightRecorder recorder(/*capacity=*/2);
  recorder.Record(MakeRecord(1));
  recorder.Record(MakeRecord(2));
  recorder.Record(MakeRecord(3));
  recorder.Clear();
  EXPECT_TRUE(recorder.Snapshot().empty());
  EXPECT_EQ(recorder.total_records(), 0u);
  EXPECT_EQ(recorder.dropped_records(), 0u);
  recorder.Record(MakeRecord(4));
  EXPECT_EQ(recorder.total_records(), 1u);
}

TEST(FlightRecorderTest, ZeroCapacityDropsEverything) {
  FlightRecorder recorder(/*capacity=*/0);
  recorder.Record(MakeRecord(1));
  EXPECT_TRUE(recorder.Snapshot().empty());
  EXPECT_EQ(recorder.dropped_records(), 1u);
  EXPECT_EQ(recorder.total_records(), 1u);
}

TEST(FlightRecorderTest, NullRecorderIsInertButValid) {
  // The form -DDELTAMON_OBS=OFF gives the process-wide recorder.
  EmptyLog<RequestRecord> recorder(/*capacity=*/256);
  recorder.set_enabled(true);
  recorder.Record(RequestRecord{});
  EXPECT_FALSE(recorder.enabled());
  EXPECT_TRUE(recorder.Snapshot().empty());
  EXPECT_TRUE(recorder.Read().records.empty());
  EXPECT_EQ(recorder.total_records(), 0u);
  EXPECT_EQ(recorder.dropped_records(), 0u);
  EXPECT_EQ(recorder.capacity(), 0u);
}

TEST(FlightRecorderTest, DebugRequestsDocumentIsWellFormed) {
  const Json doc =
      FlightRecorderJson({MakeRecord(1), MakeRecord(2)}, /*capacity=*/256,
                         /*total=*/9, /*dropped=*/7);
  auto parsed = Json::Parse(doc.Dump());
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  EXPECT_EQ(parsed->Get("capacity")->as_int(), 256);
  EXPECT_EQ(parsed->Get("total_records")->as_int(), 9);
  EXPECT_EQ(parsed->Get("dropped_records")->as_int(), 7);
  const Json* requests = parsed->Get("requests");
  ASSERT_NE(requests, nullptr);
  ASSERT_TRUE(requests->is_array());
  ASSERT_EQ(requests->size(), 2u);
  EXPECT_EQ(requests->at(1).Get("trace_id")->as_int(), 2);
}

TEST(FlightRecorderTest, EmptyDocumentIsStillValidJson) {
  auto parsed = Json::Parse(FlightRecorderJson({}, 0, 0, 0).Dump());
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  EXPECT_EQ(parsed->Get("requests")->size(), 0u);
}

TEST(ChromeTraceTest, RequestsExportEmitsCompleteEventsPerPhase) {
  const Json doc =
      RequestsChromeTraceJson({MakeRecord(1, 5000), MakeRecord(2, 6000)});
  auto parsed = Json::Parse(doc.Dump());
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  const Json* events = parsed->Get("traceEvents");
  ASSERT_NE(events, nullptr);
  // Per fully-stamped record: one "request" span + three phase spans.
  ASSERT_EQ(events->size(), 8u);
  for (const Json& e : events->array_items()) {
    EXPECT_EQ(e.Get("ph")->as_string(), "X");
    EXPECT_GE(e.Get("ts")->as_double(), 0.0);  // normalized to min enqueue
    EXPECT_GE(e.Get("dur")->as_double(), 0.0);
    EXPECT_EQ(e.Get("tid")->as_int(), 7);  // the connection id
  }
  const Json& request = events->at(0);
  EXPECT_EQ(request.Get("name")->as_string(), "request");
  ASSERT_NE(request.Get("args"), nullptr);
  EXPECT_EQ(request.Get("args")->Get("trace_id")->as_int(), 1);
  EXPECT_EQ(request.Get("args")->Get("statement")->as_string(), "commit;");
}

TEST(ChromeTraceTest, AbortedRequestsSkipUnreachedPhases) {
  RequestRecord aborted;
  aborted.context.trace_id = 1;
  aborted.enqueue_ns = 100;  // connection died before dequeue
  const Json doc = RequestsChromeTraceJson({aborted});
  EXPECT_EQ(doc.Get("traceEvents")->size(), 1u);  // just the request span
}

TEST(SlowLogTest, RecordsAreBoundedAndFormatted) {
  SlowLog& log = SlowLog::Global();
  log.Clear();
  const uint64_t total_before = log.total_records();
  log.set_threshold_ns(5'000'000);

  SlowRecord slow;
  slow.context.trace_id = 99;
  slow.context.connection_id = 3;
  slow.context.statement_ordinal = 2;
  slow.statement = "commit;";
  slow.elapsed_ns = 7'500'000;
  slow.span_tree = "rules.check_phase 1ms\n  rules.round 1ms\n";
  slow.profile_text = "  quantity(i) < 10: 1 evals\n";
  log.Record(slow);

  EXPECT_EQ(log.total_records(), total_before + 1);
  ASSERT_EQ(log.Snapshot().size(), 1u);
  EXPECT_EQ(log.Snapshot()[0].context.trace_id, 99u);

  const std::string report = log.Format();
  EXPECT_NE(report.find("SLOW STATEMENTS (threshold 5.000 ms"),
            std::string::npos)
      << report;
  EXPECT_NE(report.find("[trace 99] conn 3 stmt 2: 7.500 ms"),
            std::string::npos)
      << report;
  EXPECT_NE(report.find("  statement: commit;"), std::string::npos) << report;
  // The captured span tree is indented under the entry.
  EXPECT_NE(report.find("    rules.check_phase"), std::string::npos) << report;
  EXPECT_NE(report.find("      rules.round"), std::string::npos) << report;
  EXPECT_NE(report.find("  profile:"), std::string::npos) << report;

  auto parsed = Json::Parse(log.ToJson().Dump());
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  EXPECT_EQ(parsed->Get("threshold_ns")->as_int(), 5'000'000);
  ASSERT_EQ(parsed->Get("slow")->size(), 1u);
  EXPECT_EQ(parsed->Get("slow")->at(0).Get("trace_id")->as_int(), 99);

  log.set_threshold_ns(0);
  log.Clear();
}

TEST(SlowLogTest, DisabledThresholdReportsOff) {
  SlowLog& log = SlowLog::Global();
  log.Clear();
  log.set_threshold_ns(0);
  EXPECT_NE(log.Format().find("threshold off, 0 recorded"), std::string::npos);
}

TEST(SlowLogTest, OverflowEvictsOldestAndCountsDrops) {
  SlowLog& log = SlowLog::Global();
  log.Clear();
  const uint64_t dropped_before = log.dropped_records();
  for (uint64_t id = 1; id <= log.capacity() + 5; ++id) {
    SlowRecord r;
    r.context.trace_id = id;
    log.Record(r);
  }
  const std::vector<SlowRecord> snapshot = log.Snapshot();
  ASSERT_EQ(snapshot.size(), log.capacity());
  EXPECT_EQ(snapshot.front().context.trace_id, 6u);
  EXPECT_EQ(log.dropped_records(), dropped_before + 5);
  EXPECT_NE(log.Format().find("dropped"), std::string::npos);
  log.Clear();
}

#if DELTAMON_OBS_ENABLED

TEST(TraceScopeTest, NestsAndRestores) {
  RingTraceSink ring(16);
  EXPECT_EQ(CurrentTraceId(), 0u);
  EXPECT_EQ(CurrentTraceScope().sink, nullptr);
  {
    ScopedTrace outer({41, &ring});
    EXPECT_EQ(CurrentTraceId(), 41u);
    EXPECT_EQ(CurrentTraceScope().sink, &ring);
    {
      ScopedTrace inner({42, nullptr});
      EXPECT_EQ(CurrentTraceId(), 42u);
      EXPECT_EQ(CurrentTraceScope().sink, nullptr);
    }
    EXPECT_EQ(CurrentTraceId(), 41u);
    EXPECT_EQ(CurrentTraceScope().sink, &ring);
  }
  EXPECT_EQ(CurrentTraceId(), 0u);
  EXPECT_EQ(CurrentTraceScope().sink, nullptr);
}

TEST(TraceScopeTest, ScopeIsPerThread) {
  ScopedTrace scope({7, nullptr});
  uint64_t seen = 1;
  std::thread other([&seen] { seen = CurrentTraceId(); });
  other.join();
  EXPECT_EQ(seen, 0u) << "a scope belongs to the thread that installed it";
  EXPECT_EQ(CurrentTraceId(), 7u);
}

TEST(TraceScopeTest, SpansInheritTheScope) {
  RingTraceSink global(16);
  RingTraceSink captured(16);
  TraceSink* previous = GetTraceSink();
  SetTraceSink(&global);
  SetEnabled(true);
  {
    ScopedTrace scope({1234, nullptr});
    Span traced("net", "statement");
  }
  {
    // A private sink shadows the process-wide one for the scope.
    ScopedTrace scope({99, &captured});
    Span captured_span("net", "trace");
  }
  { Span untraced("net", "idle"); }
  SetTraceSink(previous);

  const std::vector<TraceEvent> global_events = global.Snapshot();
  ASSERT_EQ(global_events.size(), 2u);
  EXPECT_EQ(SpanField(global_events[0], "trace_id", 0), 1234);
  // Outside a request, spans carry no trace_id field at all.
  EXPECT_EQ(SpanField(global_events[1], "trace_id", -1), -1);
  const std::vector<TraceEvent> captured_events = captured.Snapshot();
  ASSERT_EQ(captured_events.size(), 1u);
  EXPECT_EQ(SpanField(captured_events[0], "trace_id", 0), 99);
}

#endif  // DELTAMON_OBS_ENABLED

}  // namespace
}  // namespace deltamon::obs
