#include "net/server.h"

#include <errno.h>
#include <poll.h>
#include <cstdio>
#include <cstring>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>

#include "net/socket.h"
#include "obs/metrics.h"

namespace deltamon::net {

namespace {

/// Registered on every connection's session so AMOSQL rule actions can
/// `do print(...)`; output rides back to the client in the reply frame's
/// report section. The sink is shared with the Conn (and outlives it if
/// the session is retired — late firings then print into the void). The
/// sink carries its own lock: a rule compiled here can fire during any
/// connection's statement, on that connection's worker thread.
void RegisterPrint(amosql::Session& session,
                   std::shared_ptr<ActionSink> sink) {
  session.RegisterProcedure(
      "print", [sink = std::move(sink)](Database&,
                                        const std::vector<Value>& args) {
        std::string line = "print:";
        for (const Value& v : args) {
          line += " " + v.ToString();
        }
        line += "\n";
        sink->Append(line);
        return Status::OK();
      });
}

void DrainEventFd(int fd) {
  uint64_t buf;
  while (::read(fd, &buf, sizeof(buf)) > 0) {
  }
}

/// Report trailer for connections that opted into trace info via the
/// HELLO flags byte: the trace id (findable in /debug/requests) plus the
/// two server-side phases known when the reply is built.
std::string TraceInfoLine(const obs::RequestRecord& record) {
  char buf[96];
  std::snprintf(buf, sizeof(buf),
                "-- trace %llu: queue %.1f us, exec %.1f us\n",
                static_cast<unsigned long long>(record.context.trace_id),
                static_cast<double>(record.QueueWaitNs()) / 1e3,
                static_cast<double>(record.ExecNs()) / 1e3);
  return buf;
}

}  // namespace

Server::Server(Engine& engine, ServerOptions options)
    : engine_(engine), options_(options), executor_(engine) {
  if (options_.num_workers == 0) options_.num_workers = 1;
}

Server::~Server() {
  RequestStop();
  Wait();
}

Status Server::Start() {
  DELTAMON_ASSIGN_OR_RETURN(listen_fd_, ListenTcp(options_.port));
  Result<uint16_t> bound = LocalPort(listen_fd_);
  if (!bound.ok()) return bound.status();
  port_ = *bound;

  stop_fd_ = ::eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK);
  if (stop_fd_ < 0) {
    return Status::Internal(std::string("eventfd: ") + std::strerror(errno));
  }

  for (size_t i = 0; i < options_.num_workers; ++i) {
    auto w = std::make_unique<Worker>();
    w->epoll_fd = ::epoll_create1(EPOLL_CLOEXEC);
    if (w->epoll_fd < 0) {
      return Status::Internal(std::string("epoll_create1: ") +
                              std::strerror(errno));
    }
    w->wake_fd = ::eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK);
    if (w->wake_fd < 0) {
      return Status::Internal(std::string("eventfd: ") + std::strerror(errno));
    }
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.fd = w->wake_fd;
    if (::epoll_ctl(w->epoll_fd, EPOLL_CTL_ADD, w->wake_fd, &ev) < 0) {
      return Status::Internal(std::string("epoll_ctl(wake): ") +
                              std::strerror(errno));
    }
    workers_.push_back(std::move(w));
  }

  if (options_.slow_statement_ms > 0) {
    obs::SlowLog::Global().set_threshold_ns(
        static_cast<uint64_t>(options_.slow_statement_ms * 1e6));
  }

  if (options_.enable_admin) {
    AdminHooks hooks;
    hooks.network_dot = [this](const std::string& rule) {
      return executor_.NetworkDot(rule);
    };
    admin_.SetHooks(std::move(hooks));
    DELTAMON_RETURN_IF_ERROR(admin_.Start(options_.admin_port));
  }

  for (auto& w : workers_) {
    w->thread = std::thread([this, worker = w.get()] { WorkerLoop(*worker); });
  }
  accept_thread_ = std::thread([this] { AcceptLoop(); });
  started_ = true;
  return Status::OK();
}

void Server::RequestStop() {
  stopping_.store(true, std::memory_order_release);
  uint64_t one = 1;
  if (stop_fd_ >= 0) {
    [[maybe_unused]] ssize_t n = ::write(stop_fd_, &one, sizeof(one));
  }
  for (auto& w : workers_) {
    if (w->wake_fd >= 0) {
      [[maybe_unused]] ssize_t n = ::write(w->wake_fd, &one, sizeof(one));
    }
  }
  admin_.RequestStop();
}

void Server::Wait() {
  if (joined_) return;
  joined_ = true;
  if (accept_thread_.joinable()) accept_thread_.join();
  for (auto& w : workers_) {
    if (w->thread.joinable()) w->thread.join();
  }
  for (auto& w : workers_) {
    CloseFd(w->epoll_fd);
    CloseFd(w->wake_fd);
    w->epoll_fd = w->wake_fd = -1;
  }
  CloseFd(listen_fd_);
  CloseFd(stop_fd_);
  listen_fd_ = stop_fd_ = -1;
  admin_.Wait();
}

void Server::Stop() {
  RequestStop();
  Wait();
}

void Server::AcceptLoop() {
  while (!stopping_.load(std::memory_order_acquire)) {
    pollfd fds[2] = {{listen_fd_, POLLIN, 0}, {stop_fd_, POLLIN, 0}};
    int n = ::poll(fds, 2, -1);
    if (n < 0) {
      if (errno == EINTR) continue;
      break;
    }
    if (fds[1].revents != 0 || stopping_.load(std::memory_order_acquire)) {
      break;
    }
    if ((fds[0].revents & POLLIN) == 0) continue;
    while (true) {
      int fd = ::accept4(listen_fd_, nullptr, nullptr,
                         SOCK_NONBLOCK | SOCK_CLOEXEC);
      if (fd < 0) break;  // EAGAIN, or a transient per-connection error
      (void)SetNoDelay(fd);
      DELTAMON_OBS_COUNT("net.connections_accepted", 1);
      Worker& w = *workers_[next_worker_.fetch_add(
                               1, std::memory_order_relaxed) %
                           workers_.size()];
      {
        std::lock_guard<std::mutex> lock(w.mu);
        w.pending.push_back(fd);
      }
      uint64_t one = 1;
      [[maybe_unused]] ssize_t r = ::write(w.wake_fd, &one, sizeof(one));
    }
  }
}

void Server::RegisterPending(Worker& w) {
  std::vector<int> pending;
  {
    std::lock_guard<std::mutex> lock(w.mu);
    pending.swap(w.pending);
  }
  for (int fd : pending) {
    if (stopping_.load(std::memory_order_acquire)) {
      CloseFd(fd);
      continue;
    }
    auto conn = std::make_unique<Conn>();
    conn->fd = fd;
    conn->conn_id = next_conn_id_.fetch_add(1, std::memory_order_relaxed) + 1;
    conn->parser = FrameParser(options_.max_frame_size);
    conn->last_active = std::chrono::steady_clock::now();
    conn->session = std::make_unique<amosql::Session>(engine_);
    conn->action_output = std::make_shared<ActionSink>();
    RegisterPrint(*conn->session, conn->action_output);
    conn->interest = EPOLLIN | EPOLLET | EPOLLRDHUP;

    epoll_event ev{};
    ev.events = conn->interest;
    ev.data.fd = fd;
    if (::epoll_ctl(w.epoll_fd, EPOLL_CTL_ADD, fd, &ev) < 0) {
      CloseFd(fd);
      continue;
    }
    w.conns.emplace(fd, std::move(conn));
    DELTAMON_OBS_GAUGE_SET(
        "net.connections_active",
        active_conns_.fetch_add(1, std::memory_order_relaxed) + 1);
  }
}

void Server::WorkerLoop(Worker& w) {
  epoll_event events[64];
  while (true) {
    const int timeout =
        options_.idle_timeout_ms > 0
            ? std::min(options_.idle_timeout_ms, 1000) / 2 + 1
            : -1;
    int n = ::epoll_wait(w.epoll_fd, events, 64, timeout);
    if (n < 0) {
      if (errno == EINTR) continue;
      break;
    }
    for (int i = 0; i < n; ++i) {
      const int fd = events[i].data.fd;
      const uint32_t ev = events[i].events;
      if (fd == w.wake_fd) {
        DrainEventFd(w.wake_fd);
        continue;
      }
      auto it = w.conns.find(fd);
      if (it == w.conns.end()) continue;
      Conn& c = *it->second;
      if ((ev & (EPOLLERR | EPOLLHUP)) != 0) {
        CloseConn(w, fd);
        continue;
      }
      bool alive = true;
      if ((ev & (EPOLLIN | EPOLLRDHUP)) != 0) alive = OnReadable(w, c);
      if (alive && (ev & EPOLLOUT) != 0) alive = FlushOut(w, c);
      if (!alive) CloseConn(w, fd);
    }
    RegisterPending(w);
    if (stopping_.load(std::memory_order_acquire)) break;
    if (options_.idle_timeout_ms > 0) SweepIdle(w);
  }
  DrainAndCloseAll(w);
}

bool Server::OnReadable(Worker& w, Conn& c) {
  // A paused connection leaves bytes in the kernel buffer so TCP flow
  // control pushes back on the client; reading resumes once the write
  // buffer drains (FlushOut).
  if (!c.paused) {
    char buf[16384];
    while (true) {
      ssize_t n = ::read(c.fd, buf, sizeof(buf));
      if (n > 0) {
        DELTAMON_OBS_COUNT("net.bytes_in", n);
        c.parser.Feed(buf, static_cast<size_t>(n));
        c.last_active = std::chrono::steady_clock::now();
        continue;
      }
      if (n == 0) {
        c.peer_eof = true;
        break;
      }
      if (errno == EAGAIN || errno == EWOULDBLOCK) break;
      if (errno == EINTR) continue;
      return false;
    }
    ProcessFrames(c);
  }
  return FlushOut(w, c);
}

void Server::ProcessFrames(Conn& c) {
  Frame frame;
  while (!c.closing) {
    if (options_.write_high_water > 0 &&
        c.out.size() >= options_.write_high_water) {
      // Stop executing this connection's statements until the client
      // consumes what it already has; remaining frames stay buffered.
      if (!c.paused) {
        c.paused = true;
        DELTAMON_OBS_COUNT("net.backpressure_paused", 1);
      }
      return;
    }
    const FrameParser::Next next = c.parser.Pop(&frame);
    if (next == FrameParser::Next::kNeedMore) break;
    if (next == FrameParser::Next::kError) {
      // Oversized or malformed length prefix: tell the client why, then
      // close — the stream cannot be resynchronized.
      DELTAMON_OBS_COUNT("net.frames_rejected", 1);
      Reply(c, FrameType::kError, c.parser.error().ToString());
      c.closing = true;
      break;
    }
    DELTAMON_OBS_COUNT("net.frames_in", 1);
    HandleFrame(c, std::move(frame));
  }
  if (c.peer_eof && !c.closing) {
    // Orderly client shutdown; anything already queued still goes out.
    c.closing = true;
  }
}

void Server::HandleFrame(Conn& c, Frame frame) {
  if (!c.handshaken) {
    if (frame.type != FrameType::kHello) {
      Reply(c, FrameType::kError,
            "protocol error: first frame must be HELLO");
      c.closing = true;
      return;
    }
    // Body is [version] or [version][flags]; unknown flag bits are
    // ignored so future clients degrade gracefully.
    if (frame.body.empty() || frame.body.size() > 2 ||
        static_cast<uint8_t>(frame.body[0]) != kProtocolVersion) {
      Reply(c, FrameType::kError,
            "unsupported protocol version (server speaks " +
                std::to_string(kProtocolVersion) + ")");
      c.closing = true;
      return;
    }
    if (frame.body.size() == 2) {
      c.wants_trace_info =
          (static_cast<uint8_t>(frame.body[1]) & kHelloFlagTraceInfo) != 0;
    }
    c.handshaken = true;
    Reply(c, FrameType::kOk,
          "deltamond protocol " + std::to_string(kProtocolVersion));
    return;
  }
  switch (frame.type) {
    case FrameType::kQuery:
      ExecuteQuery(c, frame.body);
      return;
    default:
      Reply(c, FrameType::kError, "protocol error: unexpected frame type");
      c.closing = true;
      return;
  }
}

void Server::ExecuteQuery(Conn& c, const std::string& text) {
  // Mint the request's identity the moment the QUERY frame is parsed;
  // the executor stamps the dequeue/exec phases, the flush path stamps
  // reply_flushed. Under OBS=OFF all of this folds away (kRequestTracing-
  // Enabled is constexpr false) and the executor sees a null record.
  obs::RequestRecord record;
  const uint64_t queued_before = c.bytes_sent_total + c.out.size();
  if (obs::kRequestTracingEnabled) {
    record.context.trace_id = obs::NextTraceId();
    record.context.connection_id = c.conn_id;
    // Sessions are per-connection today, so they share the connection's
    // id; a separate field keeps the record schema stable if session
    // pooling ever decouples them.
    record.context.session_id = c.conn_id;
    record.context.statement_ordinal = ++c.next_ordinal;
    record.statement = obs::StatementPreview(text);
    record.enqueue_ns = obs::MonotonicNowNs();
  }
  Result<amosql::QueryResult> result = executor_.Execute(
      *c.session, text, obs::kRequestTracingEnabled ? &record : nullptr);
  std::string action_output = c.action_output->Drain();
  if (!result.ok()) {
    // A commit that lost first-committer-wins validation gets its own
    // frame type: the transaction was rolled back and can be re-sent
    // verbatim, unlike a genuine error.
    const FrameType type =
        result.status().code() == StatusCode::kTxnConflict ? FrameType::kAborted
                                                           : FrameType::kError;
    Reply(c, type, result.status().ToString());
  } else {
    // Rule-action print output first, then the statement report — the
    // order the REPL shows them in.
    std::string report = std::move(action_output) + result->report;
    if (obs::kRequestTracingEnabled && c.wants_trace_info) {
      report += TraceInfoLine(record);
    }
    if (result->rows.empty()) {
      Reply(c, FrameType::kOk, report);
    } else {
      std::vector<std::string> rows;
      rows.reserve(result->rows.size());
      for (const Tuple& t : result->rows) rows.push_back(t.ToString());
      Reply(c, FrameType::kRows, EncodeRows(rows, report));
    }
  }
  if (obs::kRequestTracingEnabled) {
    record.reply_queued_ns = obs::MonotonicNowNs();
    const uint64_t reply_end = c.bytes_sent_total + c.out.size();
    record.reply_bytes = reply_end - queued_before;
    c.inflight.push_back(PendingReply{std::move(record), reply_end});
  }
}

void Server::Reply(Conn& c, FrameType type, std::string_view body) {
  AppendReply(&c.out, type, body, options_.max_frame_size);
}

void Server::CompleteFlushedReplies(Conn& c) {
  while (!c.inflight.empty() &&
         c.inflight.front().reply_end <= c.bytes_sent_total) {
    PendingReply& p = c.inflight.front();
    p.record.reply_flushed_ns = obs::MonotonicNowNs();
    p.record.reply_flushed = true;
    DELTAMON_OBS_RECORD("net.reply_write_ns",
                        p.record.reply_flushed_ns - p.record.reply_queued_ns);
    obs::GlobalRequestRecorder().Record(std::move(p.record));
    c.inflight.pop_front();
  }
}

bool Server::FlushOut(Worker& w, Conn& c) {
  while (true) {
    bool kernel_full = false;
    while (!c.out.empty()) {
      // MSG_NOSIGNAL: a peer that closed with replies in flight must come
      // back as EPIPE here, not as a SIGPIPE that kills the host process.
      ssize_t n = ::send(c.fd, c.out.data(), c.out.size(), MSG_NOSIGNAL);
      if (n > 0) {
        DELTAMON_OBS_COUNT("net.bytes_out", n);
        c.bytes_sent_total += static_cast<uint64_t>(n);
        c.out.erase(0, static_cast<size_t>(n));
        continue;
      }
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
        kernel_full = true;  // the next EPOLLOUT edge continues the drain
        break;
      }
      if (n < 0 && errno == EINTR) continue;
      return false;  // peer went away mid-write
    }
    // Fully drained: resume a paused connection and execute the frames
    // that were held back. They may refill `out`, so loop to write the
    // new replies now — no future EPOLLOUT edge is guaranteed here.
    if (kernel_full || !c.paused || c.closing) break;
    c.paused = false;
    ProcessFrames(c);
    if (c.out.empty() && !c.closing) break;
  }
  CompleteFlushedReplies(c);
  const bool need_write = !c.out.empty();
  const uint32_t want = EPOLLET | EPOLLRDHUP | (c.paused ? 0u : EPOLLIN) |
                        (need_write ? EPOLLOUT : 0u);
  if (want != c.interest) {
    epoll_event ev{};
    ev.events = want;
    ev.data.fd = c.fd;
    if (::epoll_ctl(w.epoll_fd, EPOLL_CTL_MOD, c.fd, &ev) < 0) return false;
    c.interest = want;
  }
  return !(c.closing && c.out.empty());
}

void Server::CloseConn(Worker& w, int fd) {
  auto it = w.conns.find(fd);
  if (it == w.conns.end()) return;
  // Account for whatever did reach the kernel, then record the rest as
  // aborted (reply_flushed stays false) so the flight recorder doesn't
  // silently lose requests whose connection died mid-reply.
  CompleteFlushedReplies(*it->second);
  for (PendingReply& p : it->second->inflight) {
    obs::GlobalRequestRecorder().Record(std::move(p.record));
  }
  it->second->inflight.clear();
  ::epoll_ctl(w.epoll_fd, EPOLL_CTL_DEL, fd, nullptr);
  CloseFd(fd);
  if (it->second->session->created_rules()) {
    // Rules compiled by this session hold a pointer to it; keep it alive
    // for the engine's lifetime (see class comment). Rule-free sessions
    // are referenced by nothing and die with the connection.
    std::lock_guard<std::mutex> lock(retired_mu_);
    retired_sessions_.push_back(std::move(it->second->session));
  }
  w.conns.erase(it);
  DELTAMON_OBS_GAUGE_SET(
      "net.connections_active",
      active_conns_.fetch_sub(1, std::memory_order_relaxed) - 1);
}

void Server::SweepIdle(Worker& w) {
  const auto now = std::chrono::steady_clock::now();
  const auto limit = std::chrono::milliseconds(options_.idle_timeout_ms);
  std::vector<int> expired;
  for (const auto& [fd, conn] : w.conns) {
    if (now - conn->last_active > limit) expired.push_back(fd);
  }
  for (int fd : expired) {
    DELTAMON_OBS_COUNT("net.idle_closed", 1);
    CloseConn(w, fd);
  }
}

void Server::DrainAndCloseAll(Worker& w) {
  // Best-effort flush of pending replies: the statement that produced
  // them already ran, the client deserves the bytes. Bounded, so a dead
  // peer cannot stall shutdown.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(1);
  for (auto& [fd, conn] : w.conns) {
    while (!conn->out.empty() &&
           std::chrono::steady_clock::now() < deadline) {
      ssize_t n = ::send(fd, conn->out.data(), conn->out.size(), MSG_NOSIGNAL);
      if (n > 0) {
        DELTAMON_OBS_COUNT("net.bytes_out", n);
        conn->bytes_sent_total += static_cast<uint64_t>(n);
        conn->out.erase(0, static_cast<size_t>(n));
        continue;
      }
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
        pollfd pfd{fd, POLLOUT, 0};
        ::poll(&pfd, 1, 50);
        continue;
      }
      if (n < 0 && errno == EINTR) continue;
      break;
    }
  }
  std::vector<int> fds;
  fds.reserve(w.conns.size());
  for (const auto& [fd, conn] : w.conns) fds.push_back(fd);
  for (int fd : fds) CloseConn(w, fd);
  // Late arrivals the accept loop queued before it stopped.
  std::lock_guard<std::mutex> lock(w.mu);
  for (int fd : w.pending) CloseFd(fd);
  w.pending.clear();
}

}  // namespace deltamon::net
