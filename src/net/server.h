#ifndef DELTAMON_NET_SERVER_H_
#define DELTAMON_NET_SERVER_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "net/executor.h"
#include "net/http.h"
#include "net/protocol.h"
#include "obs/flight_recorder.h"
#include "rules/engine.h"

namespace deltamon::net {

struct ServerOptions {
  /// TCP port for the AMOSQL protocol; 0 binds an ephemeral port (read it
  /// back with Server::port()).
  uint16_t port = 7654;
  /// Admin HTTP listener (/metrics, /healthz); port 0 = ephemeral.
  bool enable_admin = true;
  uint16_t admin_port = 0;
  /// Worker event loops; connections are assigned round-robin.
  size_t num_workers = 2;
  /// Frames above this payload size get an ERR frame and a close.
  /// Replies larger than this are split into MORE continuation frames.
  size_t max_frame_size = kDefaultMaxFrameSize;
  /// Connections with no traffic for this long are closed; 0 disables.
  int idle_timeout_ms = 0;
  /// Once a connection's unsent reply bytes reach this mark the server
  /// stops reading (and thus executing) for it until the buffer drains,
  /// so a client that pipelines statements without consuming replies
  /// cannot grow server memory without bound. 0 disables.
  size_t write_high_water = 8u << 20;
  /// Statements whose execution exceeds this threshold are captured with
  /// their full span tree and literal profile into the global SlowLog
  /// (GET /debug/slow, AMOSQL `show slow;`). 0 (the default) disables the
  /// capture and its per-statement instrumentation entirely.
  double slow_statement_ms = 0;
};

/// Output produced by rule-action `print` calls on behalf of one
/// session. A rule compiled by session A can fire during *any*
/// connection's commit wave — on the commit leader's worker thread —
/// while A's own worker drains the buffer, so the string needs its own
/// lock.
class ActionSink {
 public:
  void Append(const std::string& chunk) {
    std::lock_guard<std::mutex> lock(mu_);
    text_ += chunk;
  }
  std::string Drain() {
    std::lock_guard<std::mutex> lock(mu_);
    return std::exchange(text_, std::string());
  }

 private:
  std::mutex mu_;
  std::string text_;
};

/// deltamond: serves AMOSQL sessions to many concurrent clients.
///
/// Threading model (DESIGN.md §9):
///  - one accept thread: non-blocking listener, hands accepted sockets to
///    workers round-robin via an eventfd-signalled queue;
///  - `num_workers` worker event loops: epoll with edge-triggered
///    readiness, non-blocking sockets, per-connection read/write buffers
///    and FrameParser. A connection lives on exactly one worker, so its
///    Session is only ever touched by that worker's thread;
///  - statement execution happens inline on the worker, through the
///    Executor. Every Session is transactional, so workers execute
///    concurrently, synchronizing only at the engine gate and the
///    group-commit queue — no cross-thread response handoff;
///  - an optional admin HTTP thread (AdminServer).
///
/// Sessions that created rules are referenced by those rules' compiled
/// actions for the engine's lifetime, so closing such a connection
/// retires its Session into a server-owned graveyard instead of
/// destroying it (lifecycle_test covers fire-after-disconnect). Sessions
/// that never created a rule are destroyed with their connection, so the
/// graveyard grows with rule-creating sessions, not with every
/// connection ever served.
///
/// Shutdown: RequestStop() is async-signal-safe (atomic store + eventfd
/// writes); Stop()/Wait() then close the listener, let each worker finish
/// the statement it is executing, flush pending write buffers with a
/// bounded drain, close all connections, and join every thread.
class Server {
 public:
  Server(Engine& engine, ServerOptions options);
  ~Server();
  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  Status Start();

  /// Bound ports; valid after Start().
  uint16_t port() const { return port_; }
  uint16_t admin_port() const { return admin_.port(); }

  /// Async-signal-safe stop trigger.
  void RequestStop();
  /// Drains and joins everything; idempotent. Returns once all threads
  /// have exited and all sockets are closed.
  void Wait();
  /// RequestStop() + Wait().
  void Stop();

  /// Observability for tests: live connections / graveyard size. Only
  /// sessions that created rules are retired (their compiled actions
  /// reference the session); rule-free sessions die with the connection.
  int64_t active_connections() const {
    return active_conns_.load(std::memory_order_relaxed);
  }
  size_t retired_session_count() const {
    std::lock_guard<std::mutex> lock(retired_mu_);
    return retired_sessions_.size();
  }

 private:
  /// A request whose reply is queued but not yet flushed to the kernel.
  /// `reply_end` is the absolute outbound byte offset (bytes_sent_total
  /// coordinates) one past the reply's last byte: with replies queued and
  /// sent strictly in order, the request completes exactly when
  /// bytes_sent_total reaches it — correct under pipelining, MORE
  /// chunking, and partial writes.
  struct PendingReply {
    obs::RequestRecord record;
    uint64_t reply_end = 0;
  };

  struct Conn {
    int fd = -1;
    FrameParser parser;
    std::string out;           ///< bytes accepted for write, not yet sent
    uint32_t interest = 0;     ///< epoll event mask currently armed
    bool handshaken = false;
    bool closing = false;      ///< close once `out` drains
    bool paused = false;       ///< reads suspended: `out` hit high water
    bool peer_eof = false;     ///< orderly shutdown seen from the client
    bool wants_trace_info = false;  ///< HELLO kHelloFlagTraceInfo
    uint64_t conn_id = 0;           ///< process-unique, minted at accept
    uint64_t next_ordinal = 0;      ///< statements executed so far
    uint64_t bytes_sent_total = 0;  ///< reply bytes accepted by the kernel
    std::chrono::steady_clock::time_point last_active;
    std::unique_ptr<amosql::Session> session;
    /// Lines printed by rule actions / procedures during execution; owned
    /// by shared_ptr because a rule compiled by this session may fire
    /// after the connection closed.
    std::shared_ptr<ActionSink> action_output;
    /// Requests awaiting reply flush, oldest first (empty under OBS=OFF).
    std::deque<PendingReply> inflight;
  };

  struct Worker {
    int epoll_fd = -1;
    int wake_fd = -1;
    std::thread thread;
    std::mutex mu;
    std::vector<int> pending;  ///< accepted fds awaiting registration
    std::unordered_map<int, std::unique_ptr<Conn>> conns;
  };

  void AcceptLoop();
  void WorkerLoop(Worker& w);
  void RegisterPending(Worker& w);
  /// Returns false when the connection must be closed.
  bool OnReadable(Worker& w, Conn& c);
  /// Pops and executes buffered frames until the parser runs dry or the
  /// write buffer hits the high-water mark (which pauses the connection).
  void ProcessFrames(Conn& c);
  bool FlushOut(Worker& w, Conn& c);
  void HandleFrame(Conn& c, Frame frame);
  void ExecuteQuery(Conn& c, const std::string& text);
  /// Queues one logical reply, chunked to fit max_frame_size.
  void Reply(Conn& c, FrameType type, std::string_view body);
  /// Finishes every inflight request whose reply has fully reached the
  /// kernel: stamps reply_flushed, records net.reply_write_ns, and pushes
  /// the record into the global flight recorder.
  void CompleteFlushedReplies(Conn& c);
  void CloseConn(Worker& w, int fd);
  void SweepIdle(Worker& w);
  void DrainAndCloseAll(Worker& w);

  Engine& engine_;
  ServerOptions options_;
  Executor executor_;
  AdminServer admin_;

  int listen_fd_ = -1;
  int stop_fd_ = -1;  ///< eventfd waking the accept loop
  uint16_t port_ = 0;
  std::thread accept_thread_;
  std::vector<std::unique_ptr<Worker>> workers_;
  std::atomic<size_t> next_worker_{0};
  std::atomic<uint64_t> next_conn_id_{0};
  std::atomic<int64_t> active_conns_{0};
  std::atomic<bool> stopping_{false};
  bool started_ = false;
  bool joined_ = false;

  /// Sessions of closed connections (see class comment).
  mutable std::mutex retired_mu_;
  std::vector<std::unique_ptr<amosql::Session>> retired_sessions_;
};

}  // namespace deltamon::net

#endif  // DELTAMON_NET_SERVER_H_
