// End-to-end request tracing over real sockets: the HELLO trace-info
// flag, the trace line in statement reports, the /debug/requests flight
// recorder (phase decomposition, trace-id uniqueness across concurrent
// clients), the slow-statement log, the /debug/network DOT endpoint, a
// concurrent recorder read/write probe for TSan, and request-scoped span
// attribution under concurrency (concurrent `trace` statements, an armed
// slow log beside a blocked commit, 64 connections on a parallel engine).
// Runs under ASan and TSan (ctest label "net").

#include <sys/socket.h>
#include <sys/time.h>

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <future>
#include <map>
#include <set>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "net/client.h"
#include "net/http.h"
#include "net/server.h"
#include "net/socket.h"
#include "obs/flight_recorder.h"
#include "obs/json.h"
#include "obs/report.h"
#include "obs/span.h"
#include "obs/trace.h"
#include "rules/engine.h"

namespace deltamon::net {
namespace {

class TracingFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    // The recorder and slow log are process globals shared by every test
    // in this binary: start from a clean slate.
    obs::GlobalRequestRecorder().Clear();
    obs::SlowLog::Global().Clear();
    obs::SlowLog::Global().set_threshold_ns(0);
  }

  void TearDown() override {
    if (server_) server_->Stop();
    obs::SlowLog::Global().set_threshold_ns(0);
    obs::SlowLog::Global().Clear();
  }

  void StartServer(ServerOptions options = {}) {
    options.port = 0;
    server_ = std::make_unique<Server>(engine_, options);
    ASSERT_TRUE(server_->Start().ok());
  }

  void StartServerWithAdmin() {
    ServerOptions options;
    options.enable_admin = true;
    options.admin_port = 0;
    StartServer(options);
    ASSERT_NE(server_->admin_port(), 0);
  }

  Result<Client> Connect(bool trace_info = false) {
    return Client::Connect("127.0.0.1", server_->port(),
                           kDefaultMaxFrameSize, trace_info);
  }

  Engine engine_;
  std::unique_ptr<Server> server_;
};

std::string AdminGet(uint16_t port, const std::string& path) {
  Result<int> fd = ConnectTcp("127.0.0.1", port);
  EXPECT_TRUE(fd.ok());
  if (!fd.ok()) return "";
  timeval timeout{5, 0};
  ::setsockopt(*fd, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof(timeout));
  EXPECT_TRUE(
      WriteAll(*fd, "GET " + path + " HTTP/1.1\r\nHost: x\r\n\r\n").ok());
  std::string response;
  char buf[4096];
  while (true) {
    Result<size_t> n = ReadSome(*fd, buf, sizeof(buf));
    if (!n.ok() || *n == 0) break;
    response.append(buf, *n);
  }
  CloseFd(*fd);
  return response;
}

/// Strips the HTTP status line and headers, returning the body.
std::string HttpBody(const std::string& response) {
  const size_t split = response.find("\r\n\r\n");
  return split == std::string::npos ? std::string()
                                    : response.substr(split + 4);
}

/// The request id from a reply's "-- trace <id>: ..." line; 0 when absent.
uint64_t TraceIdOf(const std::string& report) {
  const size_t pos = report.find("-- trace ");
  return pos == std::string::npos ? 0 : std::stoull(report.substr(pos + 9));
}

/// The distinct trace_id args of a Chrome trace document's events (-1 for
/// an event without one) and the number of events.
std::pair<std::set<int64_t>, size_t> ChromeTraceIds(const obs::Json& doc) {
  std::set<int64_t> ids;
  const obs::Json* events = doc.Get("traceEvents");
  if (events == nullptr) return {ids, 0};
  for (const obs::Json& e : events->array_items()) {
    const obs::Json* id = e.Get("args")->Get("trace_id");
    ids.insert(id == nullptr ? -1 : id->as_int());
  }
  return {ids, events->size()};
}

/// Polls /debug/requests until `want` records carrying `statement` are
/// visible (reply-flush completion races the client's read of the reply).
std::vector<obs::RequestRecord> WaitForRecords(const std::string& statement,
                                               size_t want) {
  for (int attempt = 0; attempt < 200; ++attempt) {
    std::vector<obs::RequestRecord> matching;
    for (obs::RequestRecord& r : obs::GlobalRequestRecorder().Snapshot()) {
      if (r.statement == statement) matching.push_back(std::move(r));
    }
    if (matching.size() >= want) return matching;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  return {};
}

TEST_F(TracingFixture, TraceInfoLineFollowsTheHelloFlag) {
  StartServer();
  Result<Client> plain = Connect(/*trace_info=*/false);
  ASSERT_TRUE(plain.ok());
  Result<Client::Response> r = plain->Execute("commit;");
  ASSERT_TRUE(r.ok()) << r.status();
  EXPECT_EQ(r->report.find("-- trace"), std::string::npos)
      << "a client that did not opt in must see byte-identical replies";

  Result<Client> traced = Connect(/*trace_info=*/true);
  ASSERT_TRUE(traced.ok());
  r = traced->Execute("commit;");
  ASSERT_TRUE(r.ok()) << r.status();
  if (obs::kRequestTracingEnabled) {
    EXPECT_NE(r->report.find("-- trace"), std::string::npos) << r->report;
    EXPECT_NE(r->report.find("queue"), std::string::npos) << r->report;
    EXPECT_NE(r->report.find("exec"), std::string::npos) << r->report;
  } else {
    EXPECT_EQ(r->report.find("-- trace"), std::string::npos)
        << "OBS=OFF builds mint no trace info";
  }
}

TEST_F(TracingFixture, ErrorRepliesNeverCarryATraceLine) {
  StartServer();
  Result<Client> traced = Connect(/*trace_info=*/true);
  ASSERT_TRUE(traced.ok());
  Result<Client::Response> r = traced->Execute("select nonsense;");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().message().find("-- trace"), std::string::npos)
      << "ERR bodies are part of the protocol surface and stay untouched";
}

TEST_F(TracingFixture, CompletedStatementIsFindableInDebugRequests) {
  StartServerWithAdmin();
  {
    Result<Client> client = Connect();
    ASSERT_TRUE(client.ok());
    ASSERT_TRUE(client->Execute("commit;").ok());
  }

  if (!obs::kRequestTracingEnabled) {
    // OBS=OFF: the endpoint still serves a valid — empty — document.
    auto doc = obs::Json::Parse(
        HttpBody(AdminGet(server_->admin_port(), "/debug/requests")));
    ASSERT_TRUE(doc.ok()) << doc.status();
    EXPECT_EQ(doc->Get("requests")->size(), 0u);
    GTEST_SKIP() << "request tracing is compiled out";
  }

  const std::vector<obs::RequestRecord> records =
      WaitForRecords("commit;", 1);
  ASSERT_EQ(records.size(), 1u);
  const obs::RequestRecord& r = records[0];
  EXPECT_GT(r.context.trace_id, 0u);
  EXPECT_EQ(r.context.statement_ordinal, 1u);
  EXPECT_TRUE(r.ok);
  EXPECT_TRUE(r.reply_flushed);
  EXPECT_GT(r.reply_bytes, 0u);
  // Phase stamps are monotonic and the decomposition accounts for the
  // end-to-end latency: the three phases can only undershoot the total
  // (by the exec-end -> reply-queued gap), never overshoot it.
  EXPECT_LE(r.enqueue_ns, r.dequeue_ns);
  EXPECT_LE(r.dequeue_ns, r.exec_end_ns);
  EXPECT_LE(r.exec_end_ns, r.reply_queued_ns);
  EXPECT_LE(r.reply_queued_ns, r.reply_flushed_ns);
  EXPECT_GT(r.TotalNs(), 0u);
  EXPECT_LE(r.QueueWaitNs() + r.ExecNs() + r.ReplyWriteNs(), r.TotalNs());

  // The HTTP view of the same record: well-formed JSON with the
  // statement, its trace id, and the phase breakdown.
  const std::string response =
      AdminGet(server_->admin_port(), "/debug/requests");
  EXPECT_NE(response.find("200 OK"), std::string::npos);
  EXPECT_NE(response.find("application/json"), std::string::npos);
  auto doc = obs::Json::Parse(HttpBody(response));
  ASSERT_TRUE(doc.ok()) << doc.status();
  const obs::Json* requests = doc->Get("requests");
  ASSERT_NE(requests, nullptr);
  ASSERT_GE(requests->size(), 1u);
  bool found = false;
  for (const obs::Json& request : requests->array_items()) {
    if (request.Get("statement")->as_string() != "commit;") continue;
    found = true;
    EXPECT_EQ(request.Get("trace_id")->as_int(),
              static_cast<int64_t>(r.context.trace_id));
    EXPECT_GT(request.Get("phases")->Get("total_ns")->as_int(), 0);
  }
  EXPECT_TRUE(found) << HttpBody(response);
}

TEST_F(TracingFixture, DebugRequestsTraceIsLoadableChromeJson) {
  StartServerWithAdmin();
  {
    Result<Client> client = Connect();
    ASSERT_TRUE(client.ok());
    ASSERT_TRUE(client->Execute("commit;").ok());
  }
  if (obs::kRequestTracingEnabled) {
    ASSERT_EQ(WaitForRecords("commit;", 1).size(), 1u);
  }
  auto doc = obs::Json::Parse(
      HttpBody(AdminGet(server_->admin_port(), "/debug/requests/trace")));
  ASSERT_TRUE(doc.ok()) << doc.status();
  const obs::Json* events = doc->Get("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_TRUE(events->is_array());
  if (obs::kRequestTracingEnabled) {
    ASSERT_GE(events->size(), 1u);
    for (const obs::Json& e : events->array_items()) {
      EXPECT_EQ(e.Get("ph")->as_string(), "X");
      EXPECT_GE(e.Get("ts")->as_double(), 0.0);
    }
  } else {
    EXPECT_EQ(events->size(), 0u);
  }
}

TEST_F(TracingFixture, ConcurrentClientsGetUniqueMonotonicTraceIds) {
  if (!obs::kRequestTracingEnabled) {
    GTEST_SKIP() << "request tracing is compiled out";
  }
  StartServer();
  constexpr int kClients = 16;
  constexpr int kStatements = 3;
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  threads.reserve(kClients);
  for (int i = 0; i < kClients; ++i) {
    threads.emplace_back([this, &failures] {
      Result<Client> client = Connect();
      if (!client.ok()) {
        failures.fetch_add(1);
        return;
      }
      for (int s = 0; s < kStatements; ++s) {
        if (!client->Execute("commit;").ok()) failures.fetch_add(1);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  ASSERT_EQ(failures.load(), 0);

  const std::vector<obs::RequestRecord> records =
      WaitForRecords("commit;", kClients * kStatements);
  ASSERT_EQ(records.size(), size_t{kClients * kStatements});

  std::set<uint64_t> trace_ids;
  std::map<uint64_t, std::vector<const obs::RequestRecord*>> by_conn;
  for (const obs::RequestRecord& r : records) {
    trace_ids.insert(r.context.trace_id);
    by_conn[r.context.connection_id].push_back(&r);
  }
  EXPECT_EQ(trace_ids.size(), records.size())
      << "trace ids must be unique across connections";
  ASSERT_EQ(by_conn.size(), size_t{kClients});
  for (auto& [conn_id, conn_records] : by_conn) {
    std::sort(conn_records.begin(), conn_records.end(),
              [](const obs::RequestRecord* a, const obs::RequestRecord* b) {
                return a->context.statement_ordinal <
                       b->context.statement_ordinal;
              });
    for (size_t s = 0; s < conn_records.size(); ++s) {
      // Ordinals are 1-based, gapless and per-connection; trace ids rise
      // with them (each is minted when its QUERY frame is parsed, and a
      // blocking client pipelines nothing).
      EXPECT_EQ(conn_records[s]->context.statement_ordinal, s + 1);
      if (s > 0) {
        EXPECT_GT(conn_records[s]->context.trace_id,
                  conn_records[s - 1]->context.trace_id);
      }
    }
  }
}

TEST_F(TracingFixture, SlowStatementCapturesSpanTreeAndProfile) {
  if (!obs::kRequestTracingEnabled) {
    GTEST_SKIP() << "request tracing is compiled out";
  }
  StartServerWithAdmin();
  // Everything is "slow" at a 1ns threshold; no sleeping required.
  obs::SlowLog::Global().set_threshold_ns(1);

  Result<Client> client = Connect();
  ASSERT_TRUE(client.ok());
  ASSERT_TRUE(client
                  ->Execute(
                      "create type item;"
                      "create function quantity(item) -> integer;"
                      "create rule watch_low() as"
                      "  when for each item i where quantity(i) < 10"
                      "  do set quantity(i) = 10;"
                      "create item instances :a;"
                      "set quantity(:a) = 42;"
                      "commit;"
                      "activate watch_low();")
                  .ok());
  Result<Client::Response> r = client->Execute(
      "set quantity(:a) = 5;"
      "commit;");
  ASSERT_TRUE(r.ok()) << r.status();

  const std::vector<obs::SlowRecord> slow = obs::SlowLog::Global().Snapshot();
  ASSERT_GE(slow.size(), 1u);
  const obs::SlowRecord& last = slow.back();
  EXPECT_GT(last.context.trace_id, 0u);
  EXPECT_GT(last.elapsed_ns, 0u);
  // The captured span tree is rooted at the statement span; the commit
  // ran a deferred check phase underneath it.
  EXPECT_NE(last.span_tree.find("amosql.statement"), std::string::npos)
      << last.span_tree;
  EXPECT_NE(last.span_tree.find("rules.check_phase"), std::string::npos)
      << last.span_tree;
  EXPECT_FALSE(last.profile_text.empty());

  // The HTTP view parses and carries the same evidence.
  const std::string response = AdminGet(server_->admin_port(), "/debug/slow");
  EXPECT_NE(response.find("200 OK"), std::string::npos);
  auto doc = obs::Json::Parse(HttpBody(response));
  ASSERT_TRUE(doc.ok()) << doc.status();
  ASSERT_GE(doc->Get("slow")->size(), 1u);
  const obs::Json& entry = doc->Get("slow")->at(doc->Get("slow")->size() - 1);
  EXPECT_NE(entry.Get("span_tree")->as_string().find("amosql.statement"),
            std::string::npos);
  ASSERT_NE(entry.Get("chrome_trace"), nullptr);
  EXPECT_NE(entry.Get("chrome_trace")->Get("traceEvents"), nullptr);

  // `show slow;` renders the same log as a report, from any session.
  Result<Client::Response> show = client->Execute("show slow;");
  ASSERT_TRUE(show.ok()) << show.status();
  EXPECT_NE(show->report.find("SLOW STATEMENTS"), std::string::npos)
      << show->report;
  EXPECT_NE(show->report.find("rules.check_phase"), std::string::npos)
      << show->report;
}

TEST_F(TracingFixture, DebugNetworkServesDotForActiveRules) {
  StartServerWithAdmin();
  // With no active rules the network is empty: a clean 404, not a crash.
  std::string response = AdminGet(server_->admin_port(), "/debug/network");
  EXPECT_NE(response.find("404 Not Found"), std::string::npos) << response;

  Result<Client> client = Connect();
  ASSERT_TRUE(client.ok());
  ASSERT_TRUE(client
                  ->Execute(
                      "create type item;"
                      "create function quantity(item) -> integer;"
                      "create rule watch_low() as"
                      "  when for each item i where quantity(i) < 10"
                      "  do set quantity(i) = 10;"
                      "activate watch_low();")
                  .ok());

  response = AdminGet(server_->admin_port(), "/debug/network");
  EXPECT_NE(response.find("200 OK"), std::string::npos) << response;
  EXPECT_NE(response.find("digraph propagation"), std::string::npos);
  EXPECT_NE(response.find("cnd_watch_low"), std::string::npos);

  response =
      AdminGet(server_->admin_port(), "/debug/network?rule=watch_low");
  EXPECT_NE(response.find("200 OK"), std::string::npos) << response;
  EXPECT_NE(response.find("digraph propagation"), std::string::npos);

  response =
      AdminGet(server_->admin_port(), "/debug/network?rule=no_such_rule");
  EXPECT_NE(response.find("404 Not Found"), std::string::npos) << response;
}

TEST_F(TracingFixture, ConcurrentTraceStatementsKeepTheirOwnSpans) {
  // Four connections on four workers each wrap their commits in `trace`.
  // Each trace's ring travels in its own request scope, so no file may
  // hold another request's spans, and no trace may leave a sink behind.
  ServerOptions options;
  options.num_workers = 4;
  StartServer(options);
  {
    Result<Client> boot = Connect();
    ASSERT_TRUE(boot.ok());
    ASSERT_TRUE(boot->Execute("create function quantity(integer) -> integer;"
                              "create rule floor() as"
                              "  when for each integer i where quantity(i) < 0"
                              "  do set quantity(i) = 0;"
                              "activate floor();")
                    .ok());
  }
  constexpr int kConnections = 4;
  constexpr int kRounds = 300;
  std::vector<std::thread> threads;
  for (int c = 0; c < kConnections; ++c) {
    threads.emplace_back([this, c] {
      Result<Client> client = Connect(/*trace_info=*/true);
      ASSERT_TRUE(client.ok());
      const std::string path = ::testing::TempDir() + "deltamon_trace_t" +
                               std::to_string(c) + ".json";
      for (int i = 0; i < kRounds; ++i) {
        Result<Client::Response> r = client->Execute(
            "set quantity(" + std::to_string(c) + ") = " + std::to_string(i) +
            "; trace \"" + path + "\" commit;");
        ASSERT_TRUE(r.ok()) << r.status();
        if (!obs::kRequestTracingEnabled) continue;
        Result<std::string> text = obs::ReadTextFile(path);
        ASSERT_TRUE(text.ok()) << text.status();
        Result<obs::Json> doc = obs::Json::Parse(*text);
        ASSERT_TRUE(doc.ok()) << doc.status();
        const auto [ids, events] = ChromeTraceIds(*doc);
        const int64_t want = static_cast<int64_t>(TraceIdOf(r->report));
        ASSERT_TRUE(events > 0 && ids == std::set<int64_t>{want})
            << "connection " << c << " round " << i << ": trace of request "
            << want << " holds foreign spans: " << *text;
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(obs::GetTraceSink(), nullptr);
}

TEST_F(TracingFixture, ArmedSlowLogDoesNotSerializeStatements) {
  // Connection A's commit is parked in the paused commit queue while the
  // slow log is armed; connection B, on the other worker, must still be
  // served. The wait for B's reply is bounded so a serializing executor
  // fails here instead of hanging.
  ServerOptions options;
  options.num_workers = 2;
  StartServer(options);
  Result<Client> a = Connect(/*trace_info=*/true);  // worker 0
  Result<Client> b = Connect(/*trace_info=*/true);  // worker 1
  ASSERT_TRUE(a.ok() && b.ok());
  ASSERT_TRUE(a->Execute("create function quantity(integer) -> integer;"
                         "create rule floor() as"
                         "  when for each integer i where quantity(i) < 0"
                         "  do set quantity(i) = 0;"
                         "activate floor();"
                         "set quantity(1) = 1; commit;")
                  .ok());
  obs::SlowLog::Global().set_threshold_ns(1);
  obs::SlowLog::Global().Clear();

  engine_.txn.SetCommitPaused(true);
  Result<Client::Response> a_reply = Status::Internal("not run");
  std::thread committer([&] {
    a_reply = a->Execute("set quantity(1) = 2; commit;");
  });
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (engine_.txn.queued_commits() < 1 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_EQ(engine_.txn.queued_commits(), 1u);
  std::future<Result<Client::Response>> b_reply = std::async(
      std::launch::async, [&] { return b->Execute("select quantity(1);"); });
  EXPECT_EQ(b_reply.wait_for(std::chrono::seconds(5)),
            std::future_status::ready)
      << "a select on another worker waited behind a queued commit";
  engine_.txn.SetCommitPaused(false);
  committer.join();
  Result<Client::Response> b_result = b_reply.get();
  ASSERT_TRUE(b_result.ok()) << b_result.status();
  EXPECT_EQ(b_result->rows, std::vector<std::string>{"(1)"})
      << "B reads the snapshot before A's commit";
  ASSERT_TRUE(a_reply.ok()) << a_reply.status();

  if (!obs::kRequestTracingEnabled) return;  // nothing is captured
  const uint64_t a_id = TraceIdOf(a_reply->report);
  ASSERT_NE(a_id, 0u);
  bool found = false;
  for (const obs::SlowRecord& slow : obs::SlowLog::Global().Snapshot()) {
    // Every captured tree belongs to its own request alone.
    const auto [ids, events] = ChromeTraceIds(slow.chrome_trace);
    EXPECT_EQ(ids, std::set<int64_t>{
                       static_cast<int64_t>(slow.context.trace_id)})
        << slow.statement << "\n" << slow.span_tree;
    if (slow.context.trace_id != a_id) continue;
    found = true;
    EXPECT_NE(slow.span_tree.find("rules.check_phase"), std::string::npos)
        << slow.span_tree;
  }
  EXPECT_TRUE(found) << "A's commit is missing from the slow log";
}

TEST_F(TracingFixture, EverySpanCarriesItsRequestsTraceId) {
  // 64 connections on 4 workers against a 4-thread engine, all traced
  // into one global ring. A span belongs to the request whose statement
  // subtree holds it; a pool worker's span to the (serialized) wave that
  // was running when it ran.
  if (!obs::kRequestTracingEnabled) {
    GTEST_SKIP() << "spans are compiled out";
  }
  ServerOptions options;
  options.num_workers = 4;
  StartServer(options);
  {
    // Eight conditions over quantity: level 1 of the network has eight
    // nodes, so every wave fans out over the pool.
    std::string schema =
        "create function quantity(integer) -> integer;"
        "create function alarm(integer) -> integer;";
    for (int r = 0; r < 8; ++r) {
      const std::string name = "low" + std::to_string(r);
      schema += "create rule " + name + "() as when for each integer i" +
                " where quantity(i) < " + std::to_string(r - 3) +
                " do set alarm(i) = " + std::to_string(r) + "; activate " +
                name + "();";
    }
    schema += "set threads 4;";
    Result<Client> boot = Connect();
    ASSERT_TRUE(boot.ok());
    ASSERT_TRUE(boot->Execute(schema).ok());
  }

  obs::RingTraceSink ring(1 << 18);
  obs::SetTraceSink(&ring);
  constexpr int kConnections = 64;
  constexpr int kRounds = 3;
  std::vector<std::thread> threads;
  for (int c = 0; c < kConnections; ++c) {
    threads.emplace_back([this, c] {
      Result<Client> client = Connect();
      ASSERT_TRUE(client.ok());
      const std::string key = std::to_string(c);
      for (int i = 0; i < kRounds; ++i) {
        // Values dip below the low rules' bounds now and then, so waves
        // fire actions as well as evaluate conditions.
        const std::string value = std::to_string((c + i) % 7 - 2);
        ASSERT_TRUE(client->Execute("select quantity(" + key + ");").ok());
        ASSERT_TRUE(client
                        ->Execute("set quantity(" + key + ") = " + value +
                                  "; commit;")
                        .ok());
      }
    });
  }
  for (std::thread& t : threads) t.join();
  // Joining the workers orders their (and the pool's) ring writes before
  // the reads below.
  server_->Stop();
  obs::SetTraceSink(nullptr);
  EXPECT_EQ(ring.dropped_events(), 0u);

  std::unordered_map<int64_t, const obs::TraceEvent*> by_id;
  std::set<int64_t> statement_threads;
  std::vector<const obs::TraceEvent*> waves;
  for (const obs::TraceEvent& e : ring.events()) {
    // Spans are the only trace events.
    ASSERT_TRUE(obs::IsSpanEvent(e)) << e.ToString();
    by_id[obs::SpanField(e, "span_id", 0)] = &e;
    if (e.category == "amosql" && e.name == "statement") {
      statement_threads.insert(obs::SpanField(e, "thread", 0));
    }
    if (e.category == "propagation" && e.name == "wave") waves.push_back(&e);
  }
  auto end_of = [](const obs::TraceEvent& e) {
    return obs::SpanField(e, "start_ns", 0) + obs::SpanField(e, "dur_ns", 0);
  };
  size_t in_statements = 0;
  size_t on_pool = 0;
  for (const obs::TraceEvent& e : ring.events()) {
    const int64_t trace_id = obs::SpanField(e, "trace_id", 0);
    // Nearest amosql.statement ancestor (the span itself included).
    const obs::TraceEvent* up = &e;
    while (up != nullptr &&
           !(up->category == "amosql" && up->name == "statement")) {
      auto parent = by_id.find(obs::SpanField(*up, "parent_id", 0));
      up = parent == by_id.end() ? nullptr : parent->second;
    }
    if (up != nullptr) {
      ++in_statements;
      EXPECT_EQ(trace_id, obs::SpanField(*up, "trace_id", -1))
          << e.ToString() << " under " << up->ToString();
    }
    if (statement_threads.contains(obs::SpanField(e, "thread", 0))) continue;
    ++on_pool;
    std::vector<const obs::TraceEvent*> containing;
    for (const obs::TraceEvent* wave : waves) {
      if (obs::SpanField(*wave, "start_ns", 0) <=
              obs::SpanField(e, "start_ns", 0) &&
          end_of(e) <= end_of(*wave)) {
        containing.push_back(wave);
      }
    }
    ASSERT_EQ(containing.size(), 1u) << e.ToString();
    EXPECT_EQ(trace_id, obs::SpanField(*containing[0], "trace_id", -1))
        << e.ToString() << " during " << containing[0]->ToString();
  }
  EXPECT_GT(in_statements, 0u);
  EXPECT_GT(on_pool, 0u) << "no wave ran on the pool";
}

// TSan probe: worker threads completing requests write into the global
// recorder and slow log while the admin thread renders /debug documents
// from them. No server needed — this drives the exact shared state.
TEST_F(TracingFixture, ConcurrentRecorderWritesAndAdminReadsAreClean) {
  obs::SlowLog::Global().set_threshold_ns(1);
  std::atomic<bool> stop{false};
  std::vector<std::thread> writers;
  for (int w = 0; w < 4; ++w) {
    writers.emplace_back([&stop, w] {
      uint64_t ordinal = 0;
      while (!stop.load(std::memory_order_relaxed)) {
        obs::RequestRecord r;
        r.context.trace_id = obs::NextTraceId();
        r.context.connection_id = static_cast<uint64_t>(w) + 1;
        r.context.statement_ordinal = ++ordinal;
        r.statement = "commit;";
        r.enqueue_ns = obs::MonotonicNowNs();
        r.dequeue_ns = r.enqueue_ns + 10;
        r.exec_end_ns = r.dequeue_ns + 10;
        r.reply_queued_ns = r.exec_end_ns + 1;
        r.reply_flushed_ns = r.reply_queued_ns + 5;
        r.reply_flushed = true;
        obs::GlobalRequestRecorder().Record(std::move(r));
        obs::SlowRecord slow;
        slow.context.trace_id = ordinal;
        slow.statement = "commit;";
        slow.elapsed_ns = 10;
        obs::SlowLog::Global().Record(std::move(slow));
      }
    });
  }
  std::thread reader([&stop] {
    while (!stop.load(std::memory_order_relaxed)) {
      const std::string requests =
          HandleAdminRequest("GET /debug/requests HTTP/1.1\r\n\r\n");
      EXPECT_NE(requests.find("HTTP/1.1 200"), std::string::npos);
      const std::string slow =
          HandleAdminRequest("GET /debug/slow HTTP/1.1\r\n\r\n");
      EXPECT_NE(slow.find("HTTP/1.1 200"), std::string::npos);
      HandleAdminRequest("GET /debug/requests/trace HTTP/1.1\r\n\r\n");
      obs::GlobalRequestRecorder().Snapshot();
    }
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(200));
  stop.store(true);
  for (std::thread& t : writers) t.join();
  reader.join();
  // The recorder stayed bounded no matter how fast the writers ran.
  EXPECT_LE(obs::GlobalRequestRecorder().Snapshot().size(),
            obs::GlobalRequestRecorder().capacity());
  obs::GlobalRequestRecorder().Clear();
}

}  // namespace
}  // namespace deltamon::net
