// Golden documents for every ring surface: fixed request, slow, firing and
// wave records go into the process-wide logs, and the admin endpoints
// (/debug/requests, /debug/requests/trace, /debug/slow, /debug/provenance,
// /debug/waves) plus the `show slow;` and `show provenance;` renderers
// must reproduce these exact bytes. Under -DDELTAMON_OBS=OFF the request
// recorder, provenance and wave logs are compiled out: their documents
// stay valid JSON with empty record arrays, zero tallies and capture off,
// while the slow log, which is real in every build, keeps its bytes.

#include <gtest/gtest.h>

#include <string>
#include <string_view>
#include <type_traits>

#include "net/http.h"
#include "obs/flight_recorder.h"
#include "obs/json.h"
#include "obs/provenance.h"
#include "obs/wave_recorder.h"

namespace deltamon::net {
namespace {

class RingDocumentsTest : public ::testing::Test {
 protected:
  void SetUp() override { Reset(); }
  void TearDown() override { Reset(); }

  static void Reset() {
    obs::GlobalRequestRecorder().Clear();
    obs::SlowLog::Global().Clear();
    obs::SlowLog::Global().set_threshold_ns(0);
    obs::GlobalProvenanceLog().set_enabled(false);
    obs::GlobalProvenanceLog().Clear();
    obs::GlobalWaveRecorder().set_enabled(false);
    obs::GlobalWaveRecorder().Clear();
  }

  /// Fills every log with the same fixed records.
  static void RecordFixedRecords() {
    obs::RequestRecord committed;
    committed.context = {11, 3, 3, 1};
    committed.statement = "set stock(1) = 2; commit;";
    committed.reply_flushed = true;
    committed.enqueue_ns = 1000000;
    committed.dequeue_ns = 1000250;
    committed.exec_end_ns = 1002250;
    committed.reply_queued_ns = 1002300;
    committed.reply_flushed_ns = 1002800;
    committed.reply_bytes = 64;
    committed.commit_version = 5;
    committed.commit_batch = 2;
    committed.commit_batch_size = 1;
    committed.commit_queue_wait_ns = 400;
    committed.commit_check_ns = 1200;
    obs::GlobalRequestRecorder().Record(committed);
    obs::RequestRecord aborted;
    aborted.context = {12, 4, 4, 1};
    aborted.statement = "select stock(1);";
    aborted.ok = false;
    aborted.enqueue_ns = 1000500;
    aborted.dequeue_ns = 1000600;
    aborted.exec_end_ns = 1000900;
    aborted.reply_queued_ns = 1000950;
    obs::GlobalRequestRecorder().Record(aborted);

    obs::SlowLog::Global().set_threshold_ns(5000000);
    obs::SlowRecord slow;
    slow.context = {11, 3, 3, 1};
    slow.statement = "set stock(1) = 2; commit;";
    slow.elapsed_ns = 7500000;
    slow.span_tree = "rules.check_phase 1.000 ms\n  rules.round 0.900 ms\n";
    slow.chrome_trace = obs::Json::Object();
    slow.chrome_trace.Set("traceEvents", obs::Json::Array());
    slow.chrome_trace.Set("displayTimeUnit", "ms");
    slow.profile_text = "  stock(k) < 3: 1 evals\n";
    slow.profile_json = obs::Json::Object();
    slow.profile_json.Set("clauses", 1);
    obs::SlowLog::Global().Record(slow);

    obs::GlobalProvenanceLog().set_enabled(true);
    obs::FiringRecord first;
    first.trace_id = 11;
    first.version = 5;
    first.rule = "low_stock";
    first.round = 1;
    first.instances = {"(1)"};
    obs::Json tree = obs::Json::Object();
    tree.Set("relation", "low_stock_cnd");
    tree.Set("row", "(1)");
    first.lineage.Append(tree);
    first.captured_instances = 1;
    first.total_instances = 1;
    obs::GlobalProvenanceLog().Record(first);
    obs::FiringRecord second = first;
    second.round = 2;
    second.instances = {"(2)", "(3)"};
    second.total_instances = 2;
    obs::GlobalProvenanceLog().Record(second);

    obs::GlobalWaveRecorder().set_enabled(true);
    obs::WaveRecord wave;
    wave.trace_id = 11;
    wave.version = 5;
    wave.round = 1;
    wave.threads = 2;
    wave.kernels = true;
    wave.influents.push_back(obs::WaveRelationDelta{
        "stock",
        {Tuple{Value(int64_t{1}), Value(int64_t{2})}},
        {Tuple{Value(int64_t{1}), Value(int64_t{10})}}});
    wave.roots.push_back(obs::WaveRelationDelta{
        "low_stock_cnd", {Tuple{Value(int64_t{1})}}, {}});
    wave.firings = {"low_stock (1)"};
    obs::GlobalWaveRecorder().Record(wave);
  }

  /// The response to GET `path`, split into its head and body.
  static std::pair<std::string, std::string> Get(const std::string& path) {
    const std::string response =
        HandleAdminRequest("GET " + path + " HTTP/1.1\r\n\r\n");
    const size_t split = response.find("\r\n\r\n");
    EXPECT_NE(split, std::string::npos) << response;
    if (split == std::string::npos) return {response, ""};
    return {response.substr(0, split + 2), response.substr(split + 4)};
  }
};

constexpr std::string_view kSlowBody = R"json({
  "threshold_ns": 5000000,
  "capacity": 32,
  "total_records": 1,
  "dropped_records": 0,
  "slow": [
    {
      "trace_id": 11,
      "connection_id": 3,
      "session_id": 3,
      "statement_ordinal": 1,
      "statement": "set stock(1) = 2; commit;",
      "ok": true,
      "elapsed_ns": 7500000,
      "span_tree": "rules.check_phase 1.000 ms\n  rules.round 0.900 ms\n",
      "chrome_trace": {
        "traceEvents": [],
        "displayTimeUnit": "ms"
      },
      "profile_text": "  stock(k) < 3: 1 evals\n",
      "profile": {
        "clauses": 1
      }
    }
  ]
}
)json";

constexpr std::string_view kSlowReport =
    "SLOW STATEMENTS (threshold 5.000 ms, 1 recorded)\n"
    "[trace 11] conn 3 stmt 1: 7.500 ms\n"
    "  statement: set stock(1) = 2; commit;\n"
    "  spans:\n"
    "    rules.check_phase 1.000 ms\n"
    "      rules.round 0.900 ms\n"
    "  profile:\n"
    "  stock(k) < 3: 1 evals\n";

TEST_F(RingDocumentsTest, SlowLogSurfacesAreByteIdentical) {
  RecordFixedRecords();
  const auto [head, body] = Get("/debug/slow");
  EXPECT_EQ(head, "HTTP/1.1 200 OK\r\nContent-Type: application/json\r\n"
                  "Content-Length: " +
                      std::to_string(kSlowBody.size()) +
                      "\r\nConnection: close\r\n");
  EXPECT_EQ(body, kSlowBody);
  EXPECT_EQ(obs::SlowLog::Global().Format(), kSlowReport);
}

#if DELTAMON_OBS_ENABLED

constexpr std::string_view kRequestsBody = R"json({
  "capacity": 256,
  "total_records": 2,
  "dropped_records": 0,
  "requests": [
    {
      "trace_id": 11,
      "connection_id": 3,
      "session_id": 3,
      "statement_ordinal": 1,
      "statement": "set stock(1) = 2; commit;",
      "ok": true,
      "reply_flushed": true,
      "reply_bytes": 64,
      "enqueue_ns": 1000000,
      "phases": {
        "queue_wait_ns": 250,
        "exec_ns": 2000,
        "reply_write_ns": 500,
        "total_ns": 2800
      },
      "commit": {
        "version": 5,
        "batch": 2,
        "batch_size": 1,
        "queue_wait_ns": 400,
        "check_ns": 1200
      }
    },
    {
      "trace_id": 12,
      "connection_id": 4,
      "session_id": 4,
      "statement_ordinal": 1,
      "statement": "select stock(1);",
      "ok": false,
      "reply_flushed": false,
      "reply_bytes": 0,
      "enqueue_ns": 1000500,
      "phases": {
        "queue_wait_ns": 100,
        "exec_ns": 300,
        "reply_write_ns": 0,
        "total_ns": 450
      }
    }
  ]
}
)json";

constexpr std::string_view kRequestsTraceBody = R"json({
  "traceEvents": [
    {
      "name": "request",
      "cat": "net",
      "ph": "X",
      "ts": 0,
      "dur": 2.7999999999999998,
      "pid": 1,
      "tid": 3,
      "args": {
        "trace_id": 11,
        "statement_ordinal": 1,
        "statement": "set stock(1) = 2; commit;"
      }
    },
    {
      "name": "queue_wait",
      "cat": "net",
      "ph": "X",
      "ts": 0,
      "dur": 0.25,
      "pid": 1,
      "tid": 3
    },
    {
      "name": "execute",
      "cat": "net",
      "ph": "X",
      "ts": 0.25,
      "dur": 2,
      "pid": 1,
      "tid": 3
    },
    {
      "name": "reply_write",
      "cat": "net",
      "ph": "X",
      "ts": 2.2999999999999998,
      "dur": 0.5,
      "pid": 1,
      "tid": 3
    },
    {
      "name": "request",
      "cat": "net",
      "ph": "X",
      "ts": 0.5,
      "dur": 0.45000000000000001,
      "pid": 1,
      "tid": 4,
      "args": {
        "trace_id": 12,
        "statement_ordinal": 1,
        "statement": "select stock(1);"
      }
    },
    {
      "name": "queue_wait",
      "cat": "net",
      "ph": "X",
      "ts": 0.5,
      "dur": 0.10000000000000001,
      "pid": 1,
      "tid": 4
    },
    {
      "name": "execute",
      "cat": "net",
      "ph": "X",
      "ts": 0.59999999999999998,
      "dur": 0.29999999999999999,
      "pid": 1,
      "tid": 4
    }
  ],
  "displayTimeUnit": "ms"
}
)json";

constexpr std::string_view kProvenanceBody = R"json({
  "enabled": true,
  "capacity": 128,
  "total_records": 2,
  "dropped_records": 0,
  "firings": [
    {
      "seq": 1,
      "trace_id": 11,
      "version": 5,
      "rule": "low_stock",
      "round": 1,
      "instances": [
        "(1)"
      ],
      "captured_instances": 1,
      "total_instances": 1,
      "lineage": [
        {
          "relation": "low_stock_cnd",
          "row": "(1)"
        }
      ]
    },
    {
      "seq": 2,
      "trace_id": 11,
      "version": 5,
      "rule": "low_stock",
      "round": 2,
      "instances": [
        "(2)",
        "(3)"
      ],
      "captured_instances": 1,
      "total_instances": 2,
      "lineage": [
        {
          "relation": "low_stock_cnd",
          "row": "(1)"
        }
      ]
    }
  ]
}
)json";

constexpr std::string_view kWavesBody = R"json({
  "schema": "deltamon.wave.v1",
  "enabled": true,
  "capacity": 64,
  "total_records": 1,
  "dropped_records": 0,
  "waves": [
    {
      "seq": 1,
      "trace_id": 11,
      "version": 5,
      "round": 1,
      "threads": 2,
      "kernels": true,
      "influents": [
        {
          "relation": "stock",
          "plus": [
            [
              {
                "t": "i",
                "v": 1
              },
              {
                "t": "i",
                "v": 2
              }
            ]
          ],
          "minus": [
            [
              {
                "t": "i",
                "v": 1
              },
              {
                "t": "i",
                "v": 10
              }
            ]
          ]
        }
      ],
      "roots": [
        {
          "relation": "low_stock_cnd",
          "plus": [
            [
              {
                "t": "i",
                "v": 1
              }
            ]
          ],
          "minus": []
        }
      ],
      "firings": [
        "low_stock (1)"
      ]
    }
  ]
}
)json";

constexpr std::string_view kProvenanceReport =
    "FIRING PROVENANCE (on, 2 recorded, 2 total)\n"
    "[1] low_stock fired on 1 instance(s) (trace 11, version 5, round 1)\n"
    "  (1)\n"
    "[2] low_stock fired on 2 instance(s) (trace 11, version 5, round 2)\n"
    "  (2)\n"
    "  (3)\n"
    "  (lineage captured for first 1)\n";

TEST_F(RingDocumentsTest, RingDocumentsAreByteIdentical) {
  RecordFixedRecords();
  const auto [requests_head, requests] = Get("/debug/requests");
  EXPECT_EQ(requests_head,
            "HTTP/1.1 200 OK\r\nContent-Type: application/json\r\n"
            "Content-Length: " +
                std::to_string(kRequestsBody.size()) +
                "\r\nX-Deltamon-Flight-Capacity: 256\r\n"
                "X-Deltamon-Flight-Total: 2\r\n"
                "X-Deltamon-Flight-Dropped: 0\r\nConnection: close\r\n");
  EXPECT_EQ(requests, kRequestsBody);
  EXPECT_EQ(Get("/debug/requests/trace").second, kRequestsTraceBody);
  EXPECT_EQ(Get("/debug/provenance").second, kProvenanceBody);
  EXPECT_EQ(Get("/debug/waves").second, kWavesBody);
  const auto& log = obs::GlobalProvenanceLog();
  EXPECT_EQ(obs::FormatProvenance(log.Snapshot(), log.enabled(),
                                  log.total_records(), log.dropped_records()),
            kProvenanceReport);
}

#else  // !DELTAMON_OBS_ENABLED

TEST_F(RingDocumentsTest, CompiledOutLogsServeEmptyDocuments) {
  // The compiled-out logs hold no buffer and no lock.
  static_assert(std::is_empty_v<obs::RequestRecorder>);
  static_assert(std::is_empty_v<
                std::remove_reference_t<decltype(obs::GlobalProvenanceLog())>>);
  static_assert(std::is_empty_v<
                std::remove_reference_t<decltype(obs::GlobalWaveRecorder())>>);
  RecordFixedRecords();
  const struct {
    const char* path;
    const char* records;  ///< the record array's key; null for the trace
    bool has_enabled;
  } kDocuments[] = {
      {"/debug/requests", "requests", false},
      {"/debug/provenance", "firings", true},
      {"/debug/waves", "waves", true},
      {"/debug/requests/trace", nullptr, false},
  };
  for (const auto& d : kDocuments) {
    SCOPED_TRACE(d.path);
    auto doc = obs::Json::Parse(Get(d.path).second);
    ASSERT_TRUE(doc.ok()) << doc.status().ToString();
    if (d.records == nullptr) {
      EXPECT_EQ(doc->Get("traceEvents")->size(), 0u);
      continue;
    }
    EXPECT_EQ(doc->Get(d.records)->size(), 0u);
    EXPECT_EQ(doc->Get("capacity")->as_int(), 0);
    EXPECT_EQ(doc->Get("total_records")->as_int(), 0);
    EXPECT_EQ(doc->Get("dropped_records")->as_int(), 0);
    if (d.has_enabled) {
      EXPECT_FALSE(doc->Get("enabled")->as_bool());
    }
  }
  EXPECT_NE(Get("/debug/requests").first.find(
                "X-Deltamon-Flight-Total: 0\r\nX-Deltamon-Flight-Dropped: 0"),
            std::string::npos);
  const auto& log = obs::GlobalProvenanceLog();
  EXPECT_EQ(obs::FormatProvenance(log.Snapshot(), log.enabled(),
                                  log.total_records(), log.dropped_records()),
            "FIRING PROVENANCE (off, 0 recorded, 0 total)\n");
}

#endif  // DELTAMON_OBS_ENABLED

}  // namespace
}  // namespace deltamon::net
