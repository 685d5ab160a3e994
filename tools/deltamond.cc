// deltamond: the deltamon network server. Serves AMOSQL sessions over the
// length-prefixed frame protocol (docs/server.md) and Prometheus metrics /
// liveness over an admin HTTP listener.
//
//   $ deltamond --port 7654 --admin-port 7655
//   deltamond listening on 0.0.0.0:7654 (admin http on 7655), 2 workers
//   ^C
//   deltamond: draining and shutting down
//
// SIGINT/SIGTERM trigger a graceful shutdown: stop accepting, finish the
// statement in flight, flush pending replies, close everything, and dump a
// final metrics snapshot to stderr.

#include <signal.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "amosql/session.h"
#include "flags.h"
#include "net/server.h"
#include "obs/flight_recorder.h"
#include "obs/metrics.h"
#include "obs/report.h"

using namespace deltamon;
using tools::ParseLong;

namespace {

net::Server* g_server = nullptr;

void HandleSignal(int) {
  // Only async-signal-safe work here: an atomic store + eventfd writes.
  if (g_server != nullptr) g_server->RequestStop();
}

int Usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s [options]\n"
      "  --port=N             AMOSQL protocol port (default 7654, 0 = any)\n"
      "  --admin-port=N       admin HTTP port for /metrics and /healthz\n"
      "                       (default 7655, 0 = any)\n"
      "  --no-admin           disable the admin HTTP listener\n"
      "  --workers=N          epoll worker event loops (default 2)\n"
      "  --max-frame-bytes=N  reject larger frames with ERR (default %zu)\n"
      "  --idle-timeout-ms=N  close idle connections (default 0 = never)\n"
      "  --write-high-water=N pause reading from a connection whose unsent\n"
      "                       reply bytes exceed N (default 8 MiB, 0 = off)\n"
      "  --slow-statement-ms=N capture span tree + profile of statements\n"
      "                       slower than N ms into the slow log\n"
      "                       (GET /debug/slow, `show slow;`; default 0 = "
      "off)\n"
      "  --flight-records=N   flight-recorder ring capacity in requests\n"
      "                       (GET /debug/requests; default 256)\n"
      "  --init=FILE          run AMOSQL from FILE at startup (schema "
      "preload)\n",
      argv0, net::kDefaultMaxFrameSize);
  return 2;
}

/// The final shutdown report: counters and gauges as-is, histograms as a
/// p50/p99 percentile line (latency histograms in human time units) —
/// where the time went, not which log2 buckets it landed in. The
/// percentiles come from Histogram::Percentiles via Registry::Snapshot.
std::string ShutdownSummary() {
  const obs::MetricsSnapshot snapshot = obs::Registry::Global().Snapshot();
  std::string out;
  char line[256];
  for (const auto& [name, value] : snapshot.counters) {
    std::snprintf(line, sizeof(line), "  %-40s %14llu\n", name.c_str(),
                  static_cast<unsigned long long>(value));
    out += line;
  }
  for (const auto& [name, value] : snapshot.gauges) {
    std::snprintf(line, sizeof(line), "  %-40s %14lld\n", name.c_str(),
                  static_cast<long long>(value));
    out += line;
  }
  for (const auto& [name, h] : snapshot.histograms) {
    // _ns histograms are durations: print in milliseconds.
    if (name.size() > 3 && name.rfind("_ns") == name.size() - 3) {
      std::snprintf(line, sizeof(line),
                    "  %-40s count=%llu p50=%.3fms p99=%.3fms max=%.3fms\n",
                    name.c_str(), static_cast<unsigned long long>(h.count),
                    static_cast<double>(h.p50) / 1e6,
                    static_cast<double>(h.p99) / 1e6,
                    static_cast<double>(h.max) / 1e6);
    } else {
      std::snprintf(line, sizeof(line),
                    "  %-40s count=%llu p50=%llu p99=%llu max=%llu\n",
                    name.c_str(), static_cast<unsigned long long>(h.count),
                    static_cast<unsigned long long>(h.p50),
                    static_cast<unsigned long long>(h.p99),
                    static_cast<unsigned long long>(h.max));
    }
    out += line;
  }
  if (out.empty()) out = "  (no metrics recorded)\n";
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  net::ServerOptions options;
  options.admin_port = 7655;
  std::string init_file;
  for (int i = 1; i < argc; ++i) {
    long value = 0;
    if (ParseLong(argv[i], "--port=", &value)) {
      options.port = static_cast<uint16_t>(value);
    } else if (ParseLong(argv[i], "--admin-port=", &value)) {
      options.admin_port = static_cast<uint16_t>(value);
    } else if (std::strcmp(argv[i], "--no-admin") == 0) {
      options.enable_admin = false;
    } else if (ParseLong(argv[i], "--workers=", &value) && value > 0) {
      options.num_workers = static_cast<size_t>(value);
    } else if (ParseLong(argv[i], "--max-frame-bytes=", &value) && value > 0) {
      options.max_frame_size = static_cast<size_t>(value);
    } else if (ParseLong(argv[i], "--idle-timeout-ms=", &value)) {
      options.idle_timeout_ms = static_cast<int>(value);
    } else if (ParseLong(argv[i], "--write-high-water=", &value)) {
      options.write_high_water = static_cast<size_t>(value);
    } else if (ParseLong(argv[i], "--slow-statement-ms=", &value)) {
      options.slow_statement_ms = static_cast<double>(value);
    } else if (ParseLong(argv[i], "--flight-records=", &value) && value > 0) {
      // Must precede the first GlobalRequestRecorder() use; nothing in
      // main touches the recorder before the server starts.
      obs::SetGlobalFlightRecorderCapacity(static_cast<size_t>(value));
    } else if (std::strncmp(argv[i], "--init=", 7) == 0) {
      init_file = argv[i] + 7;
    } else {
      return Usage(argv[0]);
    }
  }

  Engine engine;
  amosql::Session bootstrap(engine);
  if (!init_file.empty()) {
    Result<std::string> script = obs::ReadTextFile(init_file);
    if (!script.ok()) {
      std::fprintf(stderr, "deltamond: cannot read %s: %s\n",
                   init_file.c_str(), script.status().ToString().c_str());
      return 1;
    }
    Result<amosql::QueryResult> r =
        amosql::ExecuteStatement(bootstrap, *script);
    if (!r.ok()) {
      std::fprintf(stderr, "deltamond: init script failed: %s\n",
                   r.status().ToString().c_str());
      return 1;
    }
    if (bootstrap.txn_snapshot().HasWrites()) {
      std::fprintf(stderr,
                   "deltamond: init script leaves uncommitted writes; end "
                   "it with commit;\n");
      return 1;
    }
  }

  net::Server server(engine, options);
  if (Status s = server.Start(); !s.ok()) {
    std::fprintf(stderr, "deltamond: %s\n", s.ToString().c_str());
    return 1;
  }
  g_server = &server;
  struct sigaction sa{};
  sa.sa_handler = HandleSignal;
  sigaction(SIGINT, &sa, nullptr);
  sigaction(SIGTERM, &sa, nullptr);
  signal(SIGPIPE, SIG_IGN);  // broken pipes surface as write() errors

  if (options.enable_admin) {
    std::fprintf(stderr,
                 "deltamond listening on 0.0.0.0:%u (admin http on %u), "
                 "%zu workers\n",
                 server.port(), server.admin_port(), options.num_workers);
  } else {
    std::fprintf(stderr, "deltamond listening on 0.0.0.0:%u, %zu workers\n",
                 server.port(), options.num_workers);
  }
  std::fflush(stderr);

  server.Wait();
  g_server = nullptr;

  // Flush metrics: the final state of every net.* (and engine) metric,
  // so a scraped-to-death run still leaves its last numbers in the log.
  std::fprintf(stderr, "deltamond: draining and shutting down\n%s",
               ShutdownSummary().c_str());
  return 0;
}
