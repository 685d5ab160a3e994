// Server lifecycle under adversarial clients: protocol violations over
// real sockets, idle reaping, rules that outlive their creating
// connection, disconnects while a commit is queued or leads the queue,
// admin HTTP endpoints, and clean start/connect/query/stop.
// This suite is meant to run under ASan and TSan (ctest label "net").

#include <sys/socket.h>
#include <sys/time.h>

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "net/client.h"
#include "net/server.h"
#include "net/socket.h"
#include "objectlog/eval.h"
#include "obs/flight_recorder.h"
#include "obs/metrics.h"  // DELTAMON_OBS_ENABLED
#include "rules/engine.h"

namespace deltamon::net {
namespace {

/// Raw protocol socket for crafting frames the Client class refuses to
/// send. A receive timeout turns would-be hangs into test failures.
class RawConn {
 public:
  static Result<RawConn> Open(uint16_t port) {
    DELTAMON_ASSIGN_OR_RETURN(int fd, ConnectTcp("127.0.0.1", port));
    timeval timeout{5, 0};
    ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof(timeout));
    RawConn conn;
    conn.fd_ = fd;
    return conn;
  }

  RawConn() = default;
  ~RawConn() { CloseFd(fd_); }
  RawConn(RawConn&& other) noexcept
      : fd_(other.fd_), parser_(std::move(other.parser_)) {
    other.fd_ = -1;
  }
  RawConn(const RawConn&) = delete;
  RawConn& operator=(const RawConn&) = delete;

  Status Send(FrameType type, std::string_view body) {
    std::string wire;
    AppendFrame(&wire, type, body);
    return WriteAll(fd_, wire);
  }

  Status SendBytes(std::string_view bytes) { return WriteAll(fd_, bytes); }

  /// Reads one frame; EOF comes back as a kUnavailable status.
  Result<Frame> ReadFrame() {
    Frame frame;
    char buf[4096];
    while (true) {
      switch (parser_.Pop(&frame)) {
        case FrameParser::Next::kFrame:
          return frame;
        case FrameParser::Next::kError:
          return parser_.error();
        case FrameParser::Next::kNeedMore:
          break;
      }
      DELTAMON_ASSIGN_OR_RETURN(size_t n, ReadSome(fd_, buf, sizeof(buf)));
      if (n == 0) return Status::Internal("EOF");
      parser_.Feed(buf, n);
    }
  }

  /// True once the server closes its end.
  bool ReadUntilEof() {
    char buf[4096];
    while (true) {
      Result<size_t> n = ReadSome(fd_, buf, sizeof(buf));
      if (!n.ok()) return false;  // timeout, not EOF
      if (*n == 0) return true;
      parser_.Feed(buf, *n);
    }
  }

  Status Handshake(uint8_t version = kProtocolVersion) {
    DELTAMON_RETURN_IF_ERROR(
        Send(FrameType::kHello, std::string(1, static_cast<char>(version))));
    DELTAMON_ASSIGN_OR_RETURN(Frame reply, ReadFrame());
    if (reply.type != FrameType::kOk) {
      return Status::FailedPrecondition("handshake rejected: " + reply.body);
    }
    return Status::OK();
  }

 private:
  int fd_ = -1;
  FrameParser parser_;
};

class ServerFixture : public ::testing::Test {
 protected:
  void StartServer(ServerOptions options) {
    options.port = 0;
    server_ = std::make_unique<Server>(engine_, options);
    ASSERT_TRUE(server_->Start().ok());
  }

  Engine engine_;
  std::unique_ptr<Server> server_;
};

TEST_F(ServerFixture, StartQueryStopIsClean) {
  ServerOptions options;
  options.enable_admin = false;
  StartServer(options);

  Result<Client> client = Client::Connect("127.0.0.1", server_->port());
  ASSERT_TRUE(client.ok()) << client.status().ToString();
  Result<Client::Response> r =
      client->Execute("create function f(integer) -> integer;"
                      "set f(1) = 2; commit; select f(1);");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_EQ(r->rows.size(), 1u);
  EXPECT_EQ(r->rows[0], "(2)");

  server_->Stop();
  // Stop is idempotent and the destructor will run it again.
  server_->Stop();
  // The client now sees a dead peer.
  EXPECT_FALSE(client->Execute("select f(1);").ok());
}

TEST_F(ServerFixture, StopDrainsConnectedClients) {
  ServerOptions options;
  options.enable_admin = false;
  StartServer(options);
  // A connected, handshaken, idle client must not block shutdown.
  Result<RawConn> conn = RawConn::Open(server_->port());
  ASSERT_TRUE(conn.ok());
  ASSERT_TRUE(conn->Handshake().ok());
  server_->Stop();
  EXPECT_TRUE(conn->ReadUntilEof());
}

TEST_F(ServerFixture, QueryBeforeHelloIsRejected) {
  ServerOptions options;
  options.enable_admin = false;
  StartServer(options);

  Result<RawConn> conn = RawConn::Open(server_->port());
  ASSERT_TRUE(conn.ok());
  ASSERT_TRUE(conn->Send(FrameType::kQuery, "commit;").ok());
  Result<Frame> reply = conn->ReadFrame();
  ASSERT_TRUE(reply.ok()) << reply.status().ToString();
  EXPECT_EQ(reply->type, FrameType::kError);
  EXPECT_NE(reply->body.find("HELLO"), std::string::npos) << reply->body;
  EXPECT_TRUE(conn->ReadUntilEof());
  server_->Stop();
}

TEST_F(ServerFixture, WrongProtocolVersionIsRejected) {
  ServerOptions options;
  options.enable_admin = false;
  StartServer(options);

  Result<RawConn> conn = RawConn::Open(server_->port());
  ASSERT_TRUE(conn.ok());
  ASSERT_TRUE(
      conn->Send(FrameType::kHello, std::string(1, '\x63')).ok());  // v99
  Result<Frame> reply = conn->ReadFrame();
  ASSERT_TRUE(reply.ok());
  EXPECT_EQ(reply->type, FrameType::kError);
  EXPECT_NE(reply->body.find("version"), std::string::npos) << reply->body;
  EXPECT_TRUE(conn->ReadUntilEof());
  server_->Stop();
}

TEST_F(ServerFixture, SecondHelloIsAProtocolError) {
  ServerOptions options;
  options.enable_admin = false;
  StartServer(options);

  Result<RawConn> conn = RawConn::Open(server_->port());
  ASSERT_TRUE(conn.ok());
  ASSERT_TRUE(conn->Handshake().ok());
  ASSERT_TRUE(conn->Send(FrameType::kHello,
                         std::string(1, static_cast<char>(kProtocolVersion)))
                  .ok());
  Result<Frame> reply = conn->ReadFrame();
  ASSERT_TRUE(reply.ok());
  EXPECT_EQ(reply->type, FrameType::kError);
  EXPECT_TRUE(conn->ReadUntilEof());
  server_->Stop();
}

TEST_F(ServerFixture, OversizedFrameGetsErrAndClose) {
  ServerOptions options;
  options.enable_admin = false;
  options.max_frame_size = 256;
  StartServer(options);

  Result<RawConn> conn = RawConn::Open(server_->port());
  ASSERT_TRUE(conn.ok());
  ASSERT_TRUE(conn->Handshake().ok());
  ASSERT_TRUE(conn->Send(FrameType::kQuery, std::string(1000, 'x')).ok());
  Result<Frame> reply = conn->ReadFrame();
  ASSERT_TRUE(reply.ok()) << reply.status().ToString();
  EXPECT_EQ(reply->type, FrameType::kError);
  EXPECT_NE(reply->body.find("max frame size"), std::string::npos)
      << reply->body;
  EXPECT_TRUE(conn->ReadUntilEof());
  server_->Stop();
}

TEST_F(ServerFixture, IdleConnectionsAreReaped) {
  ServerOptions options;
  options.enable_admin = false;
  options.idle_timeout_ms = 200;
  StartServer(options);

  Result<RawConn> idle = RawConn::Open(server_->port());
  ASSERT_TRUE(idle.ok());
  ASSERT_TRUE(idle->Handshake().ok());
  // Well past the timeout the server must have closed its end; the
  // blocking read returns EOF (or times out after 5 s → failure).
  EXPECT_TRUE(idle->ReadUntilEof());
  server_->Stop();
}

TEST_F(ServerFixture, RuleFiresAfterItsSessionDisconnected) {
  // A rule's compiled action references the Session that created it (for
  // registered procedures like `print`). Closing that connection must not
  // free state the rule still needs — the server retires the session
  // instead. Run under ASan this is the use-after-free probe.
  ServerOptions options;
  options.enable_admin = false;
  StartServer(options);

  {
    Result<Client> creator = Client::Connect("127.0.0.1", server_->port());
    ASSERT_TRUE(creator.ok());
    Result<Client::Response> r = creator->Execute(
        "create function quantity(integer) -> integer;"
        "create function threshold(integer) -> integer;"
        "create rule watch() as"
        "  when for each integer i where quantity(i) < threshold(i)"
        "  do print(i);"
        "activate watch();");
    ASSERT_TRUE(r.ok()) << r.status().ToString();
  }  // creator disconnects; its session is retired, not destroyed

  Result<Client> writer = Client::Connect("127.0.0.1", server_->port());
  ASSERT_TRUE(writer.ok());
  Result<Client::Response> r = writer->Execute(
      "set threshold(5) = 10; set quantity(5) = 1; commit;");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  // The server must still be fully responsive after the orphaned rule ran.
  Result<Client::Response> check = writer->Execute("select quantity(5);");
  ASSERT_TRUE(check.ok());
  ASSERT_EQ(check->rows.size(), 1u);
  EXPECT_EQ(check->rows[0], "(1)");
  server_->Stop();
}

TEST_F(ServerFixture, PrintOutputReachesTheIssuingConnection) {
  ServerOptions options;
  options.enable_admin = false;
  StartServer(options);

  Result<Client> client = Client::Connect("127.0.0.1", server_->port());
  ASSERT_TRUE(client.ok());
  ASSERT_TRUE(client
                  ->Execute("create function quantity(integer) -> integer;"
                            "create function threshold(integer) -> integer;"
                            "create rule watch() as"
                            "  when for each integer i"
                            "  where quantity(i) < threshold(i)"
                            "  do print(i);"
                            "activate watch();")
                  .ok());
  Result<Client::Response> r = client->Execute(
      "set threshold(9) = 10; set quantity(9) = 1; commit;");
  ASSERT_TRUE(r.ok());
  EXPECT_NE(r->report.find("print"), std::string::npos)
      << "rule-action output missing from report: '" << r->report << "'";
  server_->Stop();
}

TEST_F(ServerFixture, ConcurrentRuleFiringAndSinkDrainIsRaceFree) {
  // The creator's rule can fire during *another* connection's commit
  // wave (on that connection's worker), appending to the creator's print
  // sink — while the creator's own worker drains the sink after its
  // statement returns. Run under TSan this is the data-race probe for the
  // ActionSink lock.
  ServerOptions options;
  options.enable_admin = false;
  options.num_workers = 2;
  StartServer(options);

  Result<Client> creator = Client::Connect("127.0.0.1", server_->port());
  ASSERT_TRUE(creator.ok());
  ASSERT_TRUE(creator
                  ->Execute("create function quantity(integer) -> integer;"
                            "create function threshold(integer) -> integer;"
                            "create rule watch() as"
                            "  when for each integer i"
                            "  where quantity(i) < threshold(i)"
                            "  do print(i);"
                            "activate watch();")
                  .ok());

  std::thread firing([&] {
    Result<Client> writer = Client::Connect("127.0.0.1", server_->port());
    ASSERT_TRUE(writer.ok());
    for (int k = 0; k < 50; ++k) {
      // Each commit fires the creator's rule → print into creator's sink.
      Result<Client::Response> r = writer->Execute(
          "set threshold(" + std::to_string(k) + ") = 10;"
          "set quantity(" + std::to_string(k) + ") = 1; commit;");
      ASSERT_TRUE(r.ok()) << r.status().ToString();
    }
  });
  // Meanwhile the creator keeps executing (and draining its sink).
  for (int i = 0; i < 50; ++i) {
    Result<Client::Response> r = creator->Execute("select quantity(0);");
    ASSERT_TRUE(r.ok()) << r.status().ToString();
  }
  firing.join();
  server_->Stop();
}

TEST_F(ServerFixture, LargeReplyIsChunkedIntoMoreFrames) {
  // A reply bigger than max_frame_size must arrive as MORE continuation
  // frames plus a terminal frame — never as one oversized frame the
  // client's parser would reject and poison on.
  ServerOptions options;
  options.enable_admin = false;
  options.max_frame_size = 256;
  StartServer(options);

  Result<RawConn> conn = RawConn::Open(server_->port());
  ASSERT_TRUE(conn.ok());
  ASSERT_TRUE(conn->Handshake().ok());
  const char* schema[] = {
      "create function quantity(integer) -> integer;",
      "create function threshold(integer) -> integer;",
      "create rule watch() as when for each integer i"
      "  where quantity(i) < threshold(i) do print(i);",
      "activate watch();",
  };
  for (const char* stmt : schema) {
    ASSERT_TRUE(conn->Send(FrameType::kQuery, stmt).ok());
    Result<Frame> reply = conn->ReadFrame();
    ASSERT_TRUE(reply.ok()) << stmt;
    ASSERT_EQ(reply->type, FrameType::kOk) << stmt << ": " << reply->body;
  }
  // 100 monitored keys, each set in its own small statement batch (the
  // *query* frames must fit max_frame_size too), then one commit whose
  // deferred rule firings produce ~100 print lines — well over 256 bytes.
  for (int k = 0; k < 100; ++k) {
    const std::string stmt = "set threshold(" + std::to_string(k) +
                             ") = 10; set quantity(" + std::to_string(k) +
                             ") = 1;";
    ASSERT_TRUE(conn->Send(FrameType::kQuery, stmt).ok());
    Result<Frame> reply = conn->ReadFrame();
    ASSERT_TRUE(reply.ok());
    ASSERT_EQ(reply->type, FrameType::kOk);
  }
  ASSERT_TRUE(conn->Send(FrameType::kQuery, "commit;").ok());
  std::string assembled;
  size_t more_frames = 0;
  while (true) {
    Result<Frame> frame = conn->ReadFrame();
    ASSERT_TRUE(frame.ok()) << frame.status().ToString();
    // Every individual frame respects the limit (type byte + body).
    EXPECT_LE(frame->body.size() + 1, options.max_frame_size);
    assembled += frame->body;
    if (frame->type != FrameType::kMore) {
      EXPECT_EQ(frame->type, FrameType::kOk);
      break;
    }
    ++more_frames;
  }
  EXPECT_GE(more_frames, 2u) << "reply was not chunked";
  size_t prints = 0;
  for (size_t pos = 0; (pos = assembled.find("print:", pos)) !=
                       std::string::npos;
       ++pos) {
    ++prints;
  }
  EXPECT_EQ(prints, 100u) << assembled;
  server_->Stop();
}

TEST_F(ServerFixture, BackpressurePausesWithoutLosingReplies) {
  // A client that pipelines statements without reading replies trips the
  // write high-water mark: the server pauses executing its statements
  // until the buffer drains, then resumes — every reply still arrives,
  // in order, and the connection stays usable.
  ServerOptions options;
  options.enable_admin = false;
  options.write_high_water = 64;  // every `show metrics` reply exceeds this
  StartServer(options);

  Result<RawConn> conn = RawConn::Open(server_->port());
  ASSERT_TRUE(conn.ok());
  ASSERT_TRUE(conn->Handshake().ok());
  // One write carrying 50 pipelined queries, none of whose replies have
  // been read yet.
  std::string wire;
  constexpr int kQueries = 50;
  for (int i = 0; i < kQueries; ++i) {
    AppendFrame(&wire, FrameType::kQuery, "show metrics;");
  }
  ASSERT_TRUE(conn->SendBytes(wire).ok());
  for (int i = 0; i < kQueries; ++i) {
    std::string body;
    while (true) {
      Result<Frame> frame = conn->ReadFrame();
      ASSERT_TRUE(frame.ok()) << "reply " << i << ": "
                              << frame.status().ToString();
      body += frame->body;
      if (frame->type != FrameType::kMore) {
        ASSERT_EQ(frame->type, FrameType::kOk);
        break;
      }
    }
    EXPECT_NE(body.find("METRICS"), std::string::npos);
  }
  // The final snapshot proves the pause path actually ran. OBS=OFF builds
  // keep no metrics (the report is an empty table), so there the intact,
  // in-order replies above are the whole evidence.
  ASSERT_TRUE(conn->Send(FrameType::kQuery, "show metrics;").ok());
  std::string last;
  while (true) {
    Result<Frame> frame = conn->ReadFrame();
    ASSERT_TRUE(frame.ok());
    last += frame->body;
    if (frame->type != FrameType::kMore) break;
  }
  if (DELTAMON_OBS_ENABLED) {
    EXPECT_NE(last.find("net.backpressure_paused"), std::string::npos)
        << last;
  } else {
    EXPECT_EQ(last.find("net."), std::string::npos) << last;
  }
  server_->Stop();
}

TEST_F(ServerFixture, PipelinedFramesRecordTheirQueueWait) {
  // Frames that arrive together are enqueued when the read that completed
  // them returns, so each one's queue wait covers the statements executed
  // ahead of it, and its statement latency includes that wait.
  if (!obs::kRequestTracingEnabled) {
    GTEST_SKIP() << "request tracing is compiled out";
  }
  ServerOptions options;
  options.enable_admin = false;
  StartServer(options);

  Result<RawConn> conn = RawConn::Open(server_->port());
  ASSERT_TRUE(conn.ok());
  ASSERT_TRUE(conn->Handshake().ok());
  const std::string statement = "rollback;";
  constexpr size_t kQueries = 50;
  std::string wire;
  for (size_t i = 0; i < kQueries; ++i) {
    AppendFrame(&wire, FrameType::kQuery, statement);
  }
  const obs::MetricsSnapshot before = obs::Registry::Global().Snapshot();
  ASSERT_TRUE(conn->SendBytes(wire).ok());
  for (size_t i = 0; i < kQueries; ++i) {
    Result<Frame> frame = conn->ReadFrame();
    ASSERT_TRUE(frame.ok()) << "reply " << i << ": "
                            << frame.status().ToString();
    ASSERT_EQ(frame->type, FrameType::kOk) << frame->body;
  }
  const obs::MetricsSnapshot batch =
      obs::Registry::Global().Snapshot().DiffSince(before);

  // Records land when their reply flush completes, which races the reads
  // above; this connection is the newest one carrying the statement.
  std::vector<obs::RequestRecord> records;
  for (int attempt = 0; attempt < 200 && records.size() < kQueries;
       ++attempt) {
    if (attempt > 0) std::this_thread::sleep_for(std::chrono::milliseconds(10));
    records.clear();
    uint64_t newest = 0;
    for (obs::RequestRecord& r : obs::GlobalRequestRecorder().Snapshot()) {
      if (r.statement != statement) continue;
      if (r.context.connection_id > newest) {
        newest = r.context.connection_id;
        records.clear();
      }
      if (r.context.connection_id == newest) records.push_back(std::move(r));
    }
  }
  ASSERT_EQ(records.size(), kQueries);
  uint64_t max_wait = 0;
  uint64_t min_exec = UINT64_MAX;
  for (const obs::RequestRecord& r : records) {
    max_wait = std::max(max_wait, r.QueueWaitNs());
    min_exec = std::min(min_exec, r.ExecNs());
  }
  EXPECT_GE(max_wait, min_exec)
      << "the last frames must wait for the statements ahead of them";

  ASSERT_TRUE(batch.histograms.contains("net.statement_latency_ns"));
  ASSERT_TRUE(batch.histograms.contains("net.queue_wait_ns"));
  EXPECT_GE(batch.histograms.at("net.statement_latency_ns").max,
            batch.histograms.at("net.queue_wait_ns").max)
      << "statement latency must include the queue wait";
  server_->Stop();
}

TEST_F(ServerFixture, DisconnectWithRepliesInFlightKeepsServing) {
  // A client that pipelines statements and hangs up without reading a
  // single reply leaves the server writing into a reset socket. That must
  // fail only this connection's write — not raise a SIGPIPE that kills the
  // process embedding the server (this test binary).
  ServerOptions options;
  options.enable_admin = false;
  StartServer(options);
  {
    Result<RawConn> conn = RawConn::Open(server_->port());
    ASSERT_TRUE(conn.ok());
    ASSERT_TRUE(conn->Handshake().ok());
    std::string wire;
    for (int i = 0; i < 2000; ++i) {
      AppendFrame(&wire, FrameType::kQuery, "show metrics;");
    }
    ASSERT_TRUE(conn->SendBytes(wire).ok());
  }  // closed with every reply unread

  {
    Result<Client> client = Client::Connect("127.0.0.1", server_->port());
    ASSERT_TRUE(client.ok()) << client.status().ToString();
    Result<Client::Response> r = client->Execute(
        "create function f(integer) -> integer; set f(1) = 2; commit;"
        "select f(1);");
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    ASSERT_EQ(r->rows.size(), 1u);
    EXPECT_EQ(r->rows[0], "(2)");
  }
  // Both connections are torn down, the abandoned one included.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (server_->active_connections() != 0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_EQ(server_->active_connections(), 0);
  server_->Stop();
}

TEST_F(ServerFixture, DisconnectWhileItsCommitIsQueuedKeepsServing) {
  // A client hangs up while its commit waits in the group-commit queue. The
  // commit still lands when the queue resumes; its reply goes to a closed
  // socket, and only that connection is torn down.
  ServerOptions options;
  options.enable_admin = false;
  options.num_workers = 2;
  StartServer(options);
  Result<Client> reader = Client::Connect("127.0.0.1", server_->port());
  ASSERT_TRUE(reader.ok()) << reader.status().ToString();
  ASSERT_TRUE(reader->Execute("create function f(integer) -> integer;").ok());

  engine_.txn.SetCommitPaused(true);
  {
    Result<RawConn> conn = RawConn::Open(server_->port());
    ASSERT_TRUE(conn.ok());
    ASSERT_TRUE(conn->Handshake().ok());
    ASSERT_TRUE(conn->Send(FrameType::kQuery, "set f(1) = 2; commit;").ok());
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(5);
    while (engine_.txn.queued_commits() < 1 &&
           std::chrono::steady_clock::now() < deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    ASSERT_EQ(engine_.txn.queued_commits(), 1u);
  }  // closed while its commit is queued
  engine_.txn.SetCommitPaused(false);

  // The reader's snapshot may predate the commit's apply; poll until the
  // committed value shows.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  std::vector<std::string> rows;
  while (true) {
    Result<Client::Response> r = reader->Execute("select f(1);");
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    rows = r->rows;
    if (rows == std::vector<std::string>{"(2)"} ||
        std::chrono::steady_clock::now() >= deadline) {
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(rows, std::vector<std::string>{"(2)"});

  Result<Client::Response> later =
      reader->Execute("set f(3) = 4; commit; select f(3);");
  ASSERT_TRUE(later.ok()) << later.status().ToString();
  EXPECT_EQ(later->rows, std::vector<std::string>{"(4)"});

  while (server_->active_connections() != 1 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_EQ(server_->active_connections(), 1)
      << "only the reader is still connected";
  server_->Stop();
}

TEST_F(ServerFixture, DisconnectWhileItsCommitLeadsKeepsServing) {
  // A client hangs up while its own commit leads the group-commit queue:
  // the leader is inside CommitBatch, held there by a rule action that
  // blocks until released. The commit still lands exactly once; its reply
  // goes to a closed socket, and only that connection is torn down.
  Catalog& catalog = engine_.db.catalog();
  const ColumnType int_col{ValueKind::kInt, kInvalidTypeId};
  RelationId f = *catalog.CreateStoredFunction(
      "f", FunctionSignature{{int_col}, {int_col}});
  RelationId hit =
      *catalog.CreateDerivedFunction("hit", FunctionSignature{{}, {int_col}});
  objectlog::Clause clause;
  clause.head_relation = hit;
  clause.num_vars = 1;
  clause.head_args = {objectlog::Term::Var(0)};
  clause.body = {objectlog::Literal::Relation(
      f, {objectlog::Term::Var(0), objectlog::Term::Const(Value(int64_t{2}))})};
  ASSERT_TRUE(engine_.registry.Define(hit, std::move(clause), catalog).ok());
  // Shared with the action, which runs on the leader's thread.
  struct Latch {
    std::mutex mu;
    std::condition_variable cv;
    bool open = false;
    std::atomic<int> firings{0};
    void Open() {
      std::lock_guard<std::mutex> lock(mu);
      open = true;
      cv.notify_all();
    }
  };
  auto latch = std::make_shared<Latch>();
  Result<rules::RuleId> rule = engine_.rules.CreateRule(
      "block", hit,
      [latch](Database&, const Tuple&, const std::vector<Tuple>&) {
        latch->firings.fetch_add(1);
        std::unique_lock<std::mutex> lock(latch->mu);
        latch->cv.wait(lock, [&latch] { return latch->open; });
        return Status::OK();
      });
  ASSERT_TRUE(rule.ok()) << rule.status().ToString();
  ASSERT_TRUE(engine_.rules.Activate(*rule).ok());
  // Never leave the leader blocked, even when an assertion below fails.
  struct Release {
    std::shared_ptr<Latch> latch;
    ~Release() { latch->Open(); }
  } release{latch};

  ServerOptions options;
  options.enable_admin = false;
  options.num_workers = 2;
  StartServer(options);
  Result<Client> reader = Client::Connect("127.0.0.1", server_->port());
  ASSERT_TRUE(reader.ok()) << reader.status().ToString();
  ASSERT_TRUE(reader->Execute("select f(1);").ok());
  const int connected = server_->active_connections();

  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  {
    Result<RawConn> conn = RawConn::Open(server_->port());
    ASSERT_TRUE(conn.ok());
    ASSERT_TRUE(conn->Handshake().ok());
    ASSERT_TRUE(conn->Send(FrameType::kQuery, "set f(1) = 2; commit;").ok());
    while (latch->firings.load() < 1 &&
           std::chrono::steady_clock::now() < deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    ASSERT_EQ(latch->firings.load(), 1) << "the commit never reached it";
  }  // closed while its commit leads the queue
  latch->Open();

  // The reader's snapshot may predate the commit's apply; poll until the
  // committed value shows.
  std::vector<std::string> rows;
  while (true) {
    Result<Client::Response> r = reader->Execute("select f(1);");
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    rows = r->rows;
    if (rows == std::vector<std::string>{"(2)"} ||
        std::chrono::steady_clock::now() >= deadline) {
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(rows, std::vector<std::string>{"(2)"});
  EXPECT_EQ(latch->firings.load(), 1) << "the commit must apply exactly once";

  Result<Client::Response> later =
      reader->Execute("set f(3) = 4; commit; select f(3);");
  ASSERT_TRUE(later.ok()) << later.status().ToString();
  EXPECT_EQ(later->rows, std::vector<std::string>{"(4)"});

  while (server_->active_connections() != connected &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_EQ(server_->active_connections(), connected)
      << "only the reader is still connected";
  EXPECT_EQ(latch->firings.load(), 1);
  server_->Stop();
}

TEST_F(ServerFixture, OnlyRuleCreatingSessionsAreRetired) {
  // The graveyard must grow with rule-creating sessions, not with every
  // connection ever served.
  ServerOptions options;
  options.enable_admin = false;
  StartServer(options);

  for (int i = 0; i < 5; ++i) {
    Result<Client> c = Client::Connect("127.0.0.1", server_->port());
    ASSERT_TRUE(c.ok());
    ASSERT_TRUE(c->Execute("commit;").ok());
  }
  // Disconnects are processed asynchronously by the workers.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (server_->active_connections() > 0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  ASSERT_EQ(server_->active_connections(), 0);
  EXPECT_EQ(server_->retired_session_count(), 0u)
      << "rule-free sessions must be destroyed, not retired";

  {
    Result<Client> creator = Client::Connect("127.0.0.1", server_->port());
    ASSERT_TRUE(creator.ok());
    ASSERT_TRUE(creator
                    ->Execute("create function q(integer) -> integer;"
                              "create rule keepme() as"
                              "  when for each integer i where q(i) < 0"
                              "  do print(i);")
                    .ok());
  }
  while (std::chrono::steady_clock::now() < deadline &&
         server_->retired_session_count() == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_EQ(server_->retired_session_count(), 1u);
  server_->Stop();
}

std::string HttpGet(uint16_t port, const std::string& request) {
  Result<int> fd = ConnectTcp("127.0.0.1", port);
  EXPECT_TRUE(fd.ok());
  if (!fd.ok()) return "";
  timeval timeout{5, 0};
  ::setsockopt(*fd, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof(timeout));
  EXPECT_TRUE(WriteAll(*fd, request).ok());
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

TEST_F(ServerFixture, AdminEndpoints) {
  ServerOptions options;
  options.enable_admin = true;
  options.admin_port = 0;
  StartServer(options);
  ASSERT_NE(server_->admin_port(), 0);

  // Generate a little protocol traffic so net.* metrics exist.
  {
    Result<Client> client = Client::Connect("127.0.0.1", server_->port());
    ASSERT_TRUE(client.ok());
    ASSERT_TRUE(client->Execute("commit;").ok());
  }

  const std::string health = HttpGet(
      server_->admin_port(), "GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n");
  EXPECT_NE(health.find("200 OK"), std::string::npos) << health;
  EXPECT_NE(health.find("ok\n"), std::string::npos) << health;

  const std::string metrics = HttpGet(
      server_->admin_port(), "GET /metrics HTTP/1.1\r\nHost: x\r\n\r\n");
  EXPECT_NE(metrics.find("200 OK"), std::string::npos);
  if (DELTAMON_OBS_ENABLED) {
    EXPECT_NE(metrics.find("net_connections_accepted"), std::string::npos)
        << metrics;
    EXPECT_NE(metrics.find("net_statements_served"), std::string::npos);
  } else {
    // OBS=OFF: still valid exposition carrying the build info, but the
    // compiled-out metrics contribute no series.
    EXPECT_NE(metrics.find("deltamon_build_info{"), std::string::npos)
        << metrics;
    EXPECT_NE(metrics.find("obs=\"off\""), std::string::npos) << metrics;
    EXPECT_EQ(metrics.find("net_"), std::string::npos) << metrics;
  }

  const std::string missing = HttpGet(
      server_->admin_port(), "GET /nope HTTP/1.1\r\nHost: x\r\n\r\n");
  EXPECT_NE(missing.find("404 Not Found"), std::string::npos);

  const std::string post = HttpGet(
      server_->admin_port(), "POST /metrics HTTP/1.1\r\nHost: x\r\n\r\n");
  EXPECT_NE(post.find("405"), std::string::npos);

  server_->Stop();
}

TEST_F(ServerFixture, ManyShortLivedConnections) {
  // Churn: connect/handshake/one statement/disconnect in a loop, across
  // two threads, against both workers. Catches fd and session leaks.
  ServerOptions options;
  options.enable_admin = false;
  StartServer(options);
  {
    Result<Client> boot = Client::Connect("127.0.0.1", server_->port());
    ASSERT_TRUE(boot.ok());
    ASSERT_TRUE(boot->Execute("create function f(integer) -> integer;").ok());
  }
  std::thread threads[2];
  for (std::thread& t : threads) {
    t = std::thread([&] {
      for (int i = 0; i < 25; ++i) {
        Result<Client> c = Client::Connect("127.0.0.1", server_->port());
        ASSERT_TRUE(c.ok());
        EXPECT_TRUE(c->Execute("select f(0);").ok());
      }
    });
  }
  for (std::thread& t : threads) t.join();
  server_->Stop();
}

}  // namespace
}  // namespace deltamon::net
