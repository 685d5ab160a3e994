#include "net/http.h"

#include <errno.h>
#include <poll.h>
#include <cstring>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include "net/socket.h"
#include "obs/flight_recorder.h"
#include "obs/metrics.h"
#include "obs/provenance.h"
#include "obs/report.h"
#include "obs/wave_recorder.h"

namespace deltamon::net {

namespace {

std::string HttpResponse(int code, const char* reason,
                         const char* content_type, std::string_view body,
                         const std::string& extra_headers = std::string()) {
  std::string out = "HTTP/1.1 " + std::to_string(code) + " " + reason +
                    "\r\nContent-Type: " + content_type +
                    "\r\nContent-Length: " + std::to_string(body.size()) +
                    "\r\n" + extra_headers + "Connection: close\r\n\r\n";
  out.append(body);
  return out;
}

/// Value of `key` in an application/x-www-form-urlencoded query string.
/// No percent-decoding: rule names are plain identifiers.
std::string QueryParam(std::string_view query, std::string_view key) {
  while (!query.empty()) {
    size_t amp = query.find('&');
    std::string_view pair =
        amp == std::string_view::npos ? query : query.substr(0, amp);
    query = amp == std::string_view::npos ? std::string_view()
                                          : query.substr(amp + 1);
    size_t eq = pair.find('=');
    if (eq != std::string_view::npos && pair.substr(0, eq) == key) {
      return std::string(pair.substr(eq + 1));
    }
  }
  return std::string();
}

}  // namespace

std::string MetricsBody() {
  return obs::FormatPrometheus(obs::Registry::Global().Snapshot());
}

std::string HandleAdminRequest(std::string_view request,
                               const AdminHooks* hooks) {
  const size_t eol = request.find("\r\n");
  std::string_view line =
      eol == std::string_view::npos ? request : request.substr(0, eol);
  const size_t sp1 = line.find(' ');
  const size_t sp2 = sp1 == std::string_view::npos
                         ? std::string_view::npos
                         : line.find(' ', sp1 + 1);
  if (sp1 == std::string_view::npos || sp2 == std::string_view::npos) {
    return HttpResponse(400, "Bad Request", "text/plain",
                        "malformed request line\n");
  }
  const std::string_view method = line.substr(0, sp1);
  std::string_view path = line.substr(sp1 + 1, sp2 - sp1 - 1);
  std::string_view query;
  if (size_t q = path.find('?'); q != std::string_view::npos) {
    query = path.substr(q + 1);
    path = path.substr(0, q);
  }
  if (method != "GET") {
    return HttpResponse(405, "Method Not Allowed", "text/plain",
                        "only GET is supported\n");
  }
  if (path == "/healthz") {
    return HttpResponse(200, "OK", "text/plain", "ok\n");
  }
  if (path == "/metrics") {
    return HttpResponse(200, "OK", "text/plain; version=0.0.4",
                        MetricsBody());
  }
  if (path == "/debug/requests") {
    // Ring health in headers so a `curl -I` (or a scraper that only wants
    // the counters) need not parse the body; both come from one read.
    const auto read = obs::GlobalRequestRecorder().Read();
    const std::string headers =
        "X-Deltamon-Flight-Capacity: " + std::to_string(read.capacity) +
        "\r\nX-Deltamon-Flight-Total: " + std::to_string(read.total) +
        "\r\nX-Deltamon-Flight-Dropped: " + std::to_string(read.dropped) +
        "\r\n";
    return HttpResponse(200, "OK", "application/json",
                        obs::FlightRecorderJson(read.records, read.capacity,
                                                read.total, read.dropped)
                            .Dump(),
                        headers);
  }
  if (path == "/debug/provenance") {
    const auto read = obs::GlobalProvenanceLog().Read();
    return HttpResponse(200, "OK", "application/json",
                        obs::ProvenanceJson(read.records, read.enabled,
                                            read.capacity, read.total,
                                            read.dropped)
                            .Dump());
  }
  if (path == "/debug/waves") {
    const auto read = obs::GlobalWaveRecorder().Read();
    return HttpResponse(200, "OK", "application/json",
                        obs::WaveFileJson(read.records, read.enabled,
                                          read.capacity, read.total,
                                          read.dropped)
                            .Dump());
  }
  if (path == "/debug/requests/trace") {
    return HttpResponse(
        200, "OK", "application/json",
        obs::RequestsChromeTraceJson(obs::GlobalRequestRecorder().Snapshot())
            .Dump());
  }
  if (path == "/debug/slow") {
    return HttpResponse(200, "OK", "application/json",
                        obs::SlowLog::Global().ToJson().Dump());
  }
  if (path == "/debug/network") {
    if (hooks == nullptr || !hooks->network_dot) {
      return HttpResponse(404, "Not Found", "text/plain",
                          "network introspection is not wired up\n");
    }
    Result<std::string> dot = hooks->network_dot(QueryParam(query, "rule"));
    if (!dot.ok()) {
      return HttpResponse(404, "Not Found", "text/plain",
                          dot.status().ToString() + "\n");
    }
    return HttpResponse(200, "OK", "text/vnd.graphviz", *dot);
  }
  return HttpResponse(404, "Not Found", "text/plain",
                      "unknown path; try /metrics, /healthz, "
                      "/debug/requests, /debug/requests/trace, /debug/slow, "
                      "/debug/provenance, /debug/waves or /debug/network\n");
}

AdminServer::~AdminServer() {
  RequestStop();
  Wait();
}

Status AdminServer::Start(uint16_t port) {
  DELTAMON_ASSIGN_OR_RETURN(listen_fd_, ListenTcp(port));
  Result<uint16_t> bound = LocalPort(listen_fd_);
  if (!bound.ok()) {
    CloseFd(listen_fd_);
    listen_fd_ = -1;
    return bound.status();
  }
  port_ = *bound;
  stop_fd_ = ::eventfd(0, EFD_CLOEXEC);
  if (stop_fd_ < 0) {
    CloseFd(listen_fd_);
    listen_fd_ = -1;
    return Status::Internal(std::string("eventfd: ") + std::strerror(errno));
  }
  thread_ = std::thread([this] { Loop(); });
  return Status::OK();
}

void AdminServer::RequestStop() {
  if (stop_fd_ < 0) return;
  stopping_.store(true, std::memory_order_release);
  uint64_t one = 1;
  // write() is async-signal-safe; the result only matters insofar as the
  // eventfd is already signalled (EAGAIN), which also wakes the loop.
  [[maybe_unused]] ssize_t n = ::write(stop_fd_, &one, sizeof(one));
}

void AdminServer::Wait() {
  if (thread_.joinable()) thread_.join();
  CloseFd(listen_fd_);
  CloseFd(stop_fd_);
  listen_fd_ = -1;
  stop_fd_ = -1;
}

void AdminServer::Loop() {
  while (!stopping_.load(std::memory_order_acquire)) {
    pollfd fds[2] = {{listen_fd_, POLLIN, 0}, {stop_fd_, POLLIN, 0}};
    int n = ::poll(fds, 2, -1);
    if (n < 0) {
      if (errno == EINTR) continue;
      break;
    }
    if (fds[1].revents != 0 ||
        stopping_.load(std::memory_order_acquire)) {
      break;
    }
    if ((fds[0].revents & POLLIN) == 0) continue;
    int client = ::accept(listen_fd_, nullptr, nullptr);
    if (client < 0) continue;
    ServeOne(client);
    CloseFd(client);
  }
}

void AdminServer::ServeOne(int client_fd) {
  // Bound everything: a stuck scraper must not wedge the admin thread.
  timeval timeout{2, 0};
  ::setsockopt(client_fd, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof(timeout));
  ::setsockopt(client_fd, SOL_SOCKET, SO_SNDTIMEO, &timeout, sizeof(timeout));

  std::string request;
  char buf[4096];
  while (request.size() < 16384 &&
         request.find("\r\n\r\n") == std::string::npos) {
    ssize_t n = ::recv(client_fd, buf, sizeof(buf), 0);
    if (n <= 0) {
      if (n < 0 && errno == EINTR) continue;
      break;
    }
    request.append(buf, static_cast<size_t>(n));
  }
  if (request.empty()) return;
  DELTAMON_OBS_COUNT("net.http_requests", 1);
  const std::string response = HandleAdminRequest(request, &hooks_);
  (void)WriteAll(client_fd, response);
}

}  // namespace deltamon::net
