#include "workloads.h"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <fstream>
#include <initializer_list>
#include <memory>
#include <thread>
#include <tuple>

#include "bench_util/inventory.h"
#include "fixture.h"
#include "gen.h"
#include "obs/flight_recorder.h"
#include "obs/metrics.h"
#include "tracing.h"

namespace perfbench {

namespace {

namespace obs = deltamon::obs;
namespace net = deltamon::net;
using deltamon::Database;
using deltamon::StatusCode;
using deltamon::Tuple;
using deltamon::Value;
using Clock = std::chrono::steady_clock;

constexpr bool kObs = DELTAMON_OBS_ENABLED != 0;
/// Fresh servers an untraced network run builds and measures in turn, each
/// for an equal share of the time; setup_s is the median of their set-ups.
/// oltp_net's single busy worker stays on one vCPU, and on a shared host
/// the vCPUs' speeds differ by up to 1.5x for many seconds at a time, so
/// one server measures one vCPU's luck. Fresh servers, with fresh threads,
/// land on vCPUs anew, and the run averages over those placements.
constexpr size_t kNetRepeats = 5;
/// Fixtures built per untraced bulk_wave run; setup_s is the median. A
/// bulk_wave fixture takes about a millisecond, so it is built often: with
/// 9 set-ups the median still moved by 0.65 between runs.
constexpr size_t kBulkSetups = 41;
/// Flight-recorder ring of a traced run; FlightPoller sweeps it every 25 ms.
constexpr size_t kTracedFlightRecords = 8192;
constexpr size_t kWriterKeysPerTxn = 256;
constexpr const char* kNotExercised = "not exercised by this workload";
/// Time slices each measured phase is cut into (see SetSliced).
constexpr size_t kSlices = 5;
constexpr const char* kAbsent = "absent: DELTAMON_OBS=OFF";
constexpr const char* kNoSamples = "no samples in the traced phase";

/// bulk_wave's propagation threads. On a shared VM, with every vCPU busy a
/// stall of any one vCPU holds up the wave barrier; with half of them free,
/// the spread of bulk_wave's commits_per_s between runs fell from 0.25 to
/// 0.13 in back-to-back five-seed tests.
size_t Half(size_t nproc) { return std::max<size_t>(1, nproc / 2); }

/// oltp_net's connections: one server worker serves nproc - 1 of them, and
/// at least two so that hot keys conflict. Statements run one at a time
/// under the executor mutex whatever the worker count, so one worker with
/// a request always queued is the bottleneck, busy, and never hands the
/// mutex to another thread. On a shared 4-vCPU host under bursty CPU
/// contention this shape halved the spread of every gated oltp_net metric
/// between runs against two connections on two workers (commits_per_s
/// 0.16 to 0.10, commit_p50_us 0.17 to 0.06, six seeds).
size_t OltpConnections(size_t nproc) {
  return std::max<size_t>(2, nproc - 1);
}

double SecondsSince(Clock::time_point t) {
  return std::chrono::duration<double>(Clock::now() - t).count();
}
double Micros(uint64_t ns) { return static_cast<double>(ns) / 1e3; }
void Pause(double us) {
  std::this_thread::sleep_for(std::chrono::duration<double, std::micro>(us));
}

double PeakRssMiB() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

double Median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  return PercentileOfSorted(v, 50);
}

/// Latencies with their completion times, so a phase can be sliced.
struct Samples {
  std::vector<double> us;
  std::vector<double> done_s;  ///< seconds since the phase began

  size_t size() const { return us.size(); }
  void Append(const Samples& o) {
    us.insert(us.end(), o.us.begin(), o.us.end());
    done_s.insert(done_s.end(), o.done_s.begin(), o.done_s.end());
  }
};

/// What the closed-loop clients of one phase did.
struct Tally {
  Clock::time_point phase_start;
  Samples commits;
  Samples reads;
  uint64_t commit_attempts = 0;
  uint64_t aborts = 0;
  std::vector<std::string> errors;

  /// Records an acknowledged commit (or completed read) begun at `begin`.
  void Commit(Clock::time_point begin) { Add(commits, begin); }
  void Read(Clock::time_point begin) { Add(reads, begin); }
  void Fail(std::string message) { errors.push_back(std::move(message)); }
  void Merge(const Tally& o) {
    commits.Append(o.commits);
    reads.Append(o.reads);
    commit_attempts += o.commit_attempts;
    aborts += o.aborts;
    errors.insert(errors.end(), o.errors.begin(), o.errors.end());
  }

 private:
  void Add(Samples& s, Clock::time_point begin) {
    const Clock::time_point now = Clock::now();
    s.us.push_back(std::chrono::duration<double, std::micro>(now - begin).count());
    s.done_s.push_back(std::chrono::duration<double>(now - phase_start).count());
  }
};

struct Phase {
  double seconds = 0;
  Tally tally;
  /// Registry counters and histograms accumulated during the phase.
  obs::MetricsSnapshot registry;

  double commits() const { return static_cast<double>(tally.commits.size()); }
  double commits_per_s() const { return commits() / seconds; }
  double Count(const char* name) const {
    return static_cast<double>(registry.CounterOr(name, 0));
  }
  /// Mean of a registry histogram over the phase (0 without samples).
  double HistogramMean(const char* name) const {
    auto it = registry.histograms.find(name);
    if (it == registry.histograms.end() || it->second.count == 0) return 0;
    return static_cast<double>(it->second.sum) /
           static_cast<double>(it->second.count);
  }
};

/// Runs `threads` closed-loop clients for `seconds`: thread i calls
/// body(i, deadline, tally), which issues one request at a time, waits for
/// its reply, and stops at the deadline.
template <typename Body>
Phase RunClosedLoop(size_t threads, double seconds, Body body) {
  std::vector<Tally> tallies(threads);
  const obs::MetricsSnapshot before = obs::Registry::Global().Snapshot();
  const Clock::time_point start = Clock::now();
  for (Tally& t : tallies) t.phase_start = start;
  const Clock::time_point deadline =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(seconds));
  std::vector<std::thread> pool;
  for (size_t i = 0; i < threads; ++i) {
    pool.emplace_back([&, i] { body(i, deadline, tallies[i]); });
  }
  for (std::thread& t : pool) t.join();
  Phase phase;
  phase.seconds = SecondsSince(start);
  for (const Tally& t : tallies) phase.tally.Merge(t);
  phase.registry = obs::Registry::Global().Snapshot().DiffSince(before);
  return phase;
}

/// --- Report helpers ----------------------------------------------------------

std::string List(const std::vector<double>& v) {
  std::string out;
  for (double x : v) out += (out.empty() ? "" : ", ") + FormatNumber(x);
  return out;
}

/// Rate, p50 and p99 of one kind of operation over one or more measured
/// phases. The rate is every operation over all measured time. Each phase
/// is cut into kSlices equal time slices; p50 is the mean of the slice
/// medians and p99 the median of the slice p99s, or taken over every sample
/// when a slice holds too few to support it. On the shared 4-vCPU host the
/// benchmark was tuned on, a vCPU's speed switches between two levels about
/// 1.5x apart for seconds at a time, so a run is a mix of both. A mean
/// moves in proportion to that mix; a median jumps from one level to the
/// other when the mix crosses one half (over 8 oltp_net runs the spread of
/// commits_per_s was 0.32 as a mean and 0.39 as a median of slices).
void SetSliced(Report& r, const char* rate, const char* p50, const char* p99,
               const std::vector<const Phase*>& phases, Samples Tally::*kind,
               const char* what) {
  std::vector<double> p50s, p99s, all;
  double seconds = 0;
  bool p99_per_slice = true;
  for (const Phase* phase : phases) {
    const Samples& s = phase->tally.*kind;
    std::vector<std::vector<double>> slices(kSlices);
    for (size_t i = 0; i < s.size(); ++i) {
      const auto k = static_cast<size_t>(s.done_s[i] / phase->seconds * kSlices);
      slices[std::min(k, kSlices - 1)].push_back(s.us[i]);
    }
    for (const std::vector<double>& slice : slices) {
      const LatencySummary l = Summarize(slice);
      p50s.push_back(l.p50);
      p99s.push_back(l.p99);
      p99_per_slice = p99_per_slice && l.p99_supported;
    }
    all.insert(all.end(), s.us.begin(), s.us.end());
    seconds += phase->seconds;
  }
  const std::string n = std::to_string(all.size()) + " " + what + " in " +
                        FormatNumber(seconds) + " s over " +
                        std::to_string(phases.size()) + " phase(s)";
  r.Set(rate, "1/s", static_cast<double>(all.size()) / seconds, n);
  if (all.empty()) {
    r.Set(p50, "us", std::nullopt, "no samples");
    r.Set(p99, "us", std::nullopt, "no samples");
    return;
  }
  double p50_sum = 0;
  for (double v : p50s) p50_sum += v;
  r.Set(p50, "us", p50_sum / static_cast<double>(p50s.size()),
        n + "; mean of slice medians " + List(p50s));
  if (p99_per_slice) {
    r.Set(p99, "us", Median(p99s), n + "; median of slices " + List(p99s));
  } else {
    r.SetP99(p99, all, n + "; all samples (slices too small), ");
  }
}

void SetEndToEnd(Report& r, const std::vector<double>& setup_s,
                 const std::vector<const Phase*>& phases, double peak_rss) {
  std::string each;
  for (double s : setup_s) each += " " + FormatNumber(s);
  r.Set("setup_s", "s", Median(setup_s),
        "median of " + std::to_string(setup_s.size()) + " setups:" + each);
  SetSliced(r, "commits_per_s", "commit_p50_us", "commit_p99_us", phases,
            &Tally::commits, "acknowledged commits");
  SetSliced(r, "reads_per_s", "read_p50_us", "read_p99_us", phases,
            &Tally::reads, "completed reads");
  r.Set("peak_rss_mb", "MiB", peak_rss,
        "ru_maxrss at the end of the last measured phase");
  uint64_t aborts = 0, attempts = 0;
  for (const Phase* p : phases) {
    aborts += p->tally.aborts;
    attempts += p->tally.commit_attempts;
  }
  r.SetRatio("abort_ratio", "ratio",
             Ratio{static_cast<double>(aborts), static_cast<double>(attempts),
                   "kTxnConflict aborts", "commit attempts"});
}

/// A ratio of two registry counters; absent when instrumentation is
/// compiled out.
void SetCounterRatio(Report& r, const char* metric, const char* unit,
                     const Phase& p, const char* num, const char* den) {
  if (!kObs) {
    r.Set(metric, unit, std::nullopt, kAbsent);
    return;
  }
  r.SetRatio(metric, unit, Ratio{p.Count(num), p.Count(den), num, den});
}

void SetHistogramMean(Report& r, const char* metric, const char* unit,
                      const Phase& p, const char* histogram) {
  if (!kObs) {
    r.Set(metric, unit, std::nullopt, kAbsent);
    return;
  }
  r.Set(metric, unit, p.HistogramMean(histogram),
        std::string("mean of registry ") + histogram);
}

/// p50 (and optionally p99) of samples; absent when the source was
/// compiled out, 0 when the traced phase produced none (kernel-evaluated
/// clauses, for one, emit no eval.clause spans).
void SetSamples(Report& r, const char* p50, const char* p99,
                const std::vector<double>& us, bool compiled_in,
                const char* source) {
  if (!compiled_in) {
    r.Set(p50, "us", std::nullopt, kAbsent);
    if (p99 != nullptr) r.Set(p99, "us", std::nullopt, kAbsent);
    return;
  }
  if (us.empty()) {
    r.Set(p50, "us", 0, kNoSamples);
    if (p99 != nullptr) r.Set(p99, "us", 0, kNoSamples);
    return;
  }
  const LatencySummary s = Summarize(us);
  const std::string detail = std::string(source) + ", n=" +
                             std::to_string(s.samples);
  r.Set(p50, "us", s.p50, detail);
  if (p99 != nullptr) r.Set(p99, "us", s.p99, detail);
}

void SetNotExercised(Report& r, std::initializer_list<const char*> names) {
  for (const char* name : names) {
    for (const MetricSpec& spec : kPerLayerMetrics) {
      if (name == std::string(spec.name)) r.Set(name, spec.unit, 0, kNotExercised);
    }
  }
}

/// Layers measured the same way on every workload: the registry's
/// propagation, evaluation and Δ counters, and the program's own spans.
void SetEngineLayers(Report& r, const Phase& p, double commits,
                     const ProgramSpanStats::Totals& spans) {
  SetCounterRatio(r, "storage.events_per_commit", "events/commit", p,
                  "db.events_logged", "db.commits");
  SetHistogramMean(r, "delta.tuples_per_round", "tuples/round", p,
                   "db.delta_tuples_taken");
  SetCounterRatio(r, "core.differentials_executed_per_wave", "diffs/wave", p,
                  "propagator.differentials_executed", "propagator.waves");
  SetCounterRatio(r, "core.differentials_skipped_per_wave", "diffs/wave", p,
                  "propagator.differentials_skipped", "propagator.waves");
  SetCounterRatio(r, "core.tuples_propagated_per_wave", "tuples/wave", p,
                  "propagator.tuples_propagated", "propagator.waves");
  SetHistogramMean(r, "core.peak_wavefront_tuples", "tuples", p,
                   "propagator.peak_wavefront_tuples");
  SetSamples(r, "core.wave_us", nullptr, spans.wave_us, kObs,
             "propagation.wave spans");
  if (kObs) {
    r.SetRatio("core.node_eval_us", "us",
               Ratio{spans.node_self_us,
                     static_cast<double>(spans.wave_us.size()),
                     "node span self time (us)", "waves"});
  } else {
    r.Set("core.node_eval_us", "us", std::nullopt, kAbsent);
  }
  SetSamples(r, "objectlog.clause_self_us", nullptr, spans.clause_self_us,
             kObs, "eval.clause span self time");
  for (auto [metric, unit, counter] :
       {std::tuple{"objectlog.clause_evals_per_commit", "evals/commit",
                   "eval.clause_evals"},
        std::tuple{"objectlog.tuples_examined_per_commit", "tuples/commit",
                   "eval.tuples_examined"},
        std::tuple{"objectlog.bindings_per_commit", "bindings/commit",
                   "eval.bindings_produced"}}) {
    if (kObs) {
      r.SetRatio(metric, unit,
                 Ratio{p.Count(counter), commits, counter, "commits"});
    } else {
      r.Set(metric, unit, std::nullopt, kAbsent);
    }
  }
}

void SetTraceOverhead(Report& r, const Phase& untraced, const Phase& traced) {
  r.SetRatio("obs.trace_overhead_ratio", "ratio",
             Ratio{traced.commits_per_s(), untraced.commits_per_s(),
                   "traced commits/s", "untraced commits/s"});
}

std::string CpuModel() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.starts_with("model name")) {
      const size_t colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out + "\"";
}

struct Shape {
  size_t client_threads = 0;
  size_t connections = 0;
  size_t server_workers = 0;
  size_t propagation_threads = 0;
  bool kernels = true;
};

std::string EnvStamp(const RunOptions& o, size_t nproc, const Shape& shape) {
  auto num = [](size_t n) { return std::to_string(n); };
  return std::string("{") + "\"workload\": " + JsonString(o.workload) +
         ", \"seed\": " + std::to_string(o.seed) +
         ", \"seconds\": " + FormatNumber(o.seconds) +
         ", \"trace\": " + (o.trace ? "1" : "0") +
         ", \"nproc\": " + num(nproc) +
         ", \"cpu_model\": " + JsonString(CpuModel()) +
         ", \"build_type\": " + JsonString(PERFBENCH_BUILD_TYPE) +
         ", \"deltamon_obs\": " + (kObs ? "\"ON\"" : "\"OFF\"") +
         ", \"git_sha\": " + JsonString(o.git_sha) +
         ", \"src_digest\": " + JsonString(o.src_digest) +
         ", \"loop\": \"closed\"" +
         ", \"client_threads\": " + num(shape.client_threads) +
         ", \"client_connections\": " + num(shape.connections) +
         ", \"server_workers\": " + num(shape.server_workers) +
         ", \"propagation_threads\": " + num(shape.propagation_threads) +
         ", \"kernels\": " + (shape.kernels ? "\"on\"" : "\"off\"") + "}";
}

/// --- Network workloads -------------------------------------------------------

Result<net::Client::Response> Execute(net::Client& client, SpanRecorder& rec,
                                      const std::string& request) {
  ScopedSpan span(rec, "net.execute");
  Result<net::Client::Response> r = client.Execute(request);
  if (rec.enabled() && r.ok()) {
    span.set_request_id(TraceIdFromReport(r->report));
  }
  return r;
}

/// The traffic of one network workload, one call per client thread.
class NetWorkload {
 public:
  virtual ~NetWorkload() = default;
  virtual void Client(size_t thread, net::Client& client, SpanRecorder& rec,
                      Clock::time_point deadline, Tally& tally) = 0;
  /// Serial replay check of everything acknowledged; mismatches.
  virtual std::vector<std::string> Check(Store& served) = 0;
};

class OltpNet : public NetWorkload {
 public:
  OltpNet(const StoreSpec& spec, uint64_t seed, size_t connections)
      : spec_(spec), seed_(seed), logs_(connections) {
    for (size_t c = 0; c < connections; ++c) {
      streams_.emplace_back(spec, seed, static_cast<int>(c),
                            static_cast<int>(connections));
    }
  }

  void Client(size_t thread, net::Client& client, SpanRecorder& rec,
              Clock::time_point deadline, Tally& tally) override {
    while (Clock::now() < deadline) {
      const OltpTxn txn = streams_[thread].Next();
      OltpCommit c{txn.key, txn.value, 0, txn.hot, txn.below};
      ScopedSpan txn_span(rec, "txn");
      const Clock::time_point start = Clock::now();
      for (;;) {
        ++tally.commit_attempts;
        if (txn.hot) {
          const Clock::time_point read_start = Clock::now();
          Result<net::Client::Response> read =
              Execute(client, rec, txn.requests[0]);
          std::optional<int64_t> value;
          if (read.ok() && read->rows.size() == 1) {
            value = ParseIntRow(read->rows[0]);
          }
          if (!value.has_value()) {
            tally.Fail("hot read of key " + std::to_string(txn.key) +
                       " failed: " +
                       (read.ok() ? "bad rows" : read.status().ToString()));
            return;
          }
          c.read_value = *value;
          tally.Read(read_start);
        }
        Result<net::Client::Response> w =
            Execute(client, rec, txn.requests.back());
        if (w.ok()) break;
        if (w.status().code() == StatusCode::kTxnConflict) {
          ++tally.aborts;
          continue;
        }
        tally.Fail("commit failed: " + w.status().ToString());
        return;
      }
      tally.Commit(start);
      logs_[thread].push_back(c);
    }
  }

  std::vector<std::string> Check(Store& served) override {
    return CheckOltp(spec_, seed_, logs_, served);
  }

 private:
  StoreSpec spec_;
  uint64_t seed_;
  std::vector<OltpStream> streams_;
  std::vector<std::vector<OltpCommit>> logs_;
};

class ReadWriteMix : public NetWorkload {
 public:
  ReadWriteMix(const StoreSpec& spec, uint64_t seed, size_t connections)
      : spec_(spec),
        seed_(seed),
        writer_(spec, seed, kWriterKeysPerTxn),
        point_reads_(connections),
        condition_rows_(connections, 0) {
    for (size_t r = 1; r < connections; ++r) {
      readers_.emplace_back(spec, seed, static_cast<int>(r));
    }
  }

  void Client(size_t thread, net::Client& client, SpanRecorder& rec,
              Clock::time_point deadline, Tally& tally) override {
    if (thread == 0) {
      Write(client, rec, deadline, tally);
    } else {
      Read(thread, client, rec, deadline, tally);
    }
  }

  std::vector<std::string> Check(Store& served) override {
    std::vector<PointRead> reads;
    uint64_t rows = 0;
    for (size_t i = 0; i < point_reads_.size(); ++i) {
      reads.insert(reads.end(), point_reads_[i].begin(), point_reads_[i].end());
      rows += condition_rows_[i];
    }
    return CheckReadWriteMix(spec_, seed_, log_, reads, rows, served);
  }

 private:
  void Write(net::Client& client, SpanRecorder& rec,
             Clock::time_point deadline, Tally& tally) {
    while (Clock::now() < deadline) {
      WriterTxn t = writer_.Next();
      ScopedSpan txn_span(rec, "txn");
      const Clock::time_point start = Clock::now();
      for (;;) {
        ++tally.commit_attempts;
        Result<net::Client::Response> r = Execute(client, rec, t.request);
        if (r.ok()) break;
        if (r.status().code() == StatusCode::kTxnConflict) {
          ++tally.aborts;
          continue;
        }
        tally.Fail("writer commit failed: " + r.status().ToString());
        return;
      }
      tally.Commit(start);
      const double think_us = t.think_us;
      t.request = std::string();
      log_.push_back(std::move(t));
      Pause(think_us);
    }
  }

  void Read(size_t thread, net::Client& client, SpanRecorder& rec,
            Clock::time_point deadline, Tally& tally) {
    ReaderStream& stream = readers_[thread - 1];
    while (Clock::now() < deadline) {
      const ReadRequest q = stream.Next();
      const Clock::time_point start = Clock::now();
      Result<net::Client::Response> r = Execute(client, rec, q.request);
      if (!r.ok()) {
        tally.Fail("read failed: " + r.status().ToString());
        return;
      }
      tally.Read(start);
      Pause(q.think_us);
      if (!q.point) {
        condition_rows_[thread] += r->rows.size();
        continue;
      }
      std::optional<int64_t> v;
      if (r->rows.size() == 1) v = ParseIntRow(r->rows[0]);
      if (!v.has_value()) {
        tally.Fail("point read of key " + std::to_string(q.key) +
                   " returned " + std::to_string(r->rows.size()) + " rows");
        return;
      }
      point_reads_[thread].push_back(PointRead{q.key, *v});
    }
  }

  StoreSpec spec_;
  uint64_t seed_;
  WriterStream writer_;
  std::vector<ReaderStream> readers_;
  std::vector<WriterTxn> log_;
  std::vector<std::vector<PointRead>> point_reads_;
  std::vector<uint64_t> condition_rows_;
};

/// Per-layer metrics of a traced network phase.
void SetNetLayers(Report& r, const Phase& traced, const FlightPoller& poller,
                  const std::vector<SpanRecorder>& recorders,
                  const ProgramSpanStats::Totals& spans,
                  std::vector<double> action_us) {
  std::vector<double> queue_wait, reply_write, exec, read_exec, commit_wait,
      check, wire;
  for (const auto& [id, rec] : poller.records()) {
    queue_wait.push_back(Micros(rec.QueueWaitNs()));
    if (rec.reply_flushed) reply_write.push_back(Micros(rec.ReplyWriteNs()));
    if (rec.commit_batch != 0) {
      const uint64_t inner = rec.commit_queue_wait_ns + rec.commit_check_ns;
      const uint64_t total = rec.ExecNs();
      exec.push_back(Micros(total > inner ? total - inner : 0));
      commit_wait.push_back(Micros(rec.commit_queue_wait_ns));
      check.push_back(Micros(rec.commit_check_ns));
    } else if (rec.statement.starts_with("select") ||
               rec.statement.starts_with("begin; select")) {
      read_exec.push_back(Micros(rec.ExecNs()));
    }
  }
  for (const SpanRecorder& rec : recorders) {
    for (const SpanRecord& s : rec.spans()) {
      if (s.request_id == 0) continue;
      auto it = poller.records().find(s.request_id);
      if (it == poller.records().end() || !it->second.reply_flushed) continue;
      const uint64_t rtt = s.end_ns - s.start_ns;
      const uint64_t server = it->second.TotalNs();
      wire.push_back(Micros(rtt > server ? rtt - server : 0));
    }
  }
  SetSamples(r, "net.wire_us", nullptr, wire, kObs,
             "client RTT - flight-record TotalNs");
  SetSamples(r, "net.queue_wait_us", "net.queue_wait_p99_us", queue_wait, kObs,
             "flight-record QueueWaitNs");
  SetSamples(r, "net.reply_write_us", nullptr, reply_write, kObs,
             "flight-record ReplyWriteNs");
  SetSamples(r, "amosql.exec_us", nullptr, exec, kObs,
             "flight-record ExecNs - commit queue wait - check, commits");
  SetSamples(r, "amosql.read_exec_us", nullptr, read_exec, kObs,
             "flight-record ExecNs, selects");
  SetSamples(r, "txn.commit_queue_wait_us", "txn.commit_queue_wait_p99_us",
             commit_wait, kObs, "flight-record commit queue_wait_ns");
  SetSamples(r, "rules.check_us", "rules.check_p99_us", check, kObs,
             "flight-record commit check_ns");
  SetSamples(r, "rules.action_us", nullptr, action_us, true,
             "restock procedure calls");
  const double commits = traced.commits();
  SetCounterRatio(r, "txn.txns_per_wave", "txns/wave", traced, "txn.commits",
                  "txn.batches");
  SetCounterRatio(r, "txn.aborts_per_commit", "aborts/commit", traced,
                  "txn.aborts.conflict", "txn.commits");
  if (kObs) {
    r.Set("txn.noop_commits", "count", commits - traced.Count("txn.commits"),
          "acknowledged " + FormatNumber(commits) + " - registry txn.commits " +
              FormatNumber(traced.Count("txn.commits")));
    r.SetRatio("rules.firings_per_commit", "firings/commit",
               Ratio{traced.Count("rules.firings"), commits, "rules.firings",
                     "acknowledged commits"});
  } else {
    r.Set("txn.noop_commits", "count", std::nullopt, kAbsent);
    r.Set("rules.firings_per_commit", "firings/commit", std::nullopt,
          kAbsent);
  }
  SetCounterRatio(r, "rules.rounds_per_check", "rounds/check", traced,
                  "rules.incremental_rounds", "rules.check_phases");
  SetNotExercised(r, {"storage.update_us", "storage.commit_overhead_us"});
  SetEngineLayers(r, traced, commits, spans);
}

/// Every acknowledged commit must be a real transaction: the registry's
/// txn.commits grows by exactly the acknowledged count.
void CheckNoNoopCommits(const Phase& p, std::vector<std::string>* errors) {
  if (!kObs) return;
  const double acked = p.commits();
  if (p.Count("txn.commits") != acked) {
    errors->push_back("acknowledged " + FormatNumber(acked) +
                      " commits but txn.commits grew by " +
                      FormatNumber(p.Count("txn.commits")));
  }
}

RunResult RunNet(const RunOptions& o, size_t nproc) {
  RunResult result;
  const StoreSpec spec;
  // read_write_mix needs one writer plus readers, each on its own worker.
  const bool oltp = o.workload == "oltp_net";
  const size_t conns = oltp ? OltpConnections(nproc) : nproc;
  Shape shape{conns, conns, oltp ? 1 : conns, 1, true};
  result.env = EnvStamp(o, nproc, shape);
  if (o.trace) obs::SetGlobalFlightRecorderCapacity(kTracedFlightRecords);

  // An untraced run measures kNetRepeats fresh servers in turn; a traced
  // run measures one, half untraced and half traced. Each server's history
  // is checked before the next is built.
  const size_t repeats = o.trace ? 1 : kNetRepeats;
  const double seconds = o.seconds / (o.trace ? 2 : repeats);
  std::vector<double> setup_s;
  std::vector<Phase> measured;
  measured.reserve(repeats);
  double rss = 0;
  double check_s = 0;
  Tally all;
  for (size_t rep = 0;
       rep < repeats && result.errors.empty() && all.errors.empty(); ++rep) {
    const Clock::time_point start = Clock::now();
    Result<std::unique_ptr<NetFixture>> built =
        StartNet(spec, o.seed, conns, shape.server_workers);
    if (!built.ok()) {
      result.errors.push_back("setup: " + built.status().ToString());
      return result;
    }
    std::unique_ptr<NetFixture> f = std::move(*built);
    setup_s.push_back(SecondsSince(start));

    std::unique_ptr<NetWorkload> w;
    if (oltp) {
      w = std::make_unique<OltpNet>(spec, o.seed, conns);
    } else {
      w = std::make_unique<ReadWriteMix>(spec, o.seed, conns);
    }
    auto run_phase = [&](double phase_s, std::vector<SpanRecorder>& recs) {
      return RunClosedLoop(conns, phase_s, [&](size_t i, Clock::time_point dl,
                                               Tally& tally) {
        w->Client(i, f->clients[i], recs[i], dl, tally);
      });
    };
    std::vector<SpanRecorder> untraced;
    for (size_t i = 0; i < conns; ++i) untraced.emplace_back(i, false);

    measured.push_back(run_phase(seconds, untraced));
    const Phase& a = measured.back();
    rss = PeakRssMiB();
    all.Merge(a.tally);
    std::vector<const Phase*> phases = {&a};

    Phase b;
    std::vector<SpanRecorder> traced;
    if (o.trace && a.tally.errors.empty()) {
      f->clients.clear();  // never more than `conns` connections at once
      Result<std::vector<net::Client>> clients =
          Connect(f->server->port(), conns, /*trace_info=*/true);
      if (!clients.ok()) {
        result.errors.push_back("reconnect: " + clients.status().ToString());
        return result;
      }
      f->clients = std::move(*clients);
      for (size_t i = 0; i < conns; ++i) traced.emplace_back(i + 1, true);
      ProgramSpanStats sink;
      FlightPoller poller;
      f->store->TimeActions(true);
      obs::SetTraceSink(&sink);
      poller.Start();
      b = run_phase(seconds, traced);
      poller.Stop();
      obs::SetTraceSink(nullptr);
      f->store->TimeActions(false);
      SetNetLayers(result.report, b, poller, traced, sink.Take(),
                   f->store->TakeActionMicros());
      SetTraceOverhead(result.report, a, b);
      if (kObs) {
        result.report.Set("obs.flight_records", "count",
                          static_cast<double>(poller.records().size()),
                          "dropped_records=" + std::to_string(poller.dropped()));
      } else {
        result.report.Set("obs.flight_records", "count", std::nullopt, kAbsent);
      }
      all.Merge(b.tally);
      phases.push_back(&b);
    }
    f->server->Stop();

    for (const Phase* p : phases) CheckNoNoopCommits(*p, &result.errors);
    if (all.errors.empty()) {
      const Clock::time_point check_start = Clock::now();
      for (std::string& e : w->Check(*f->store)) result.errors.push_back(e);
      check_s += SecondsSince(check_start);
    }
    if (o.trace && !traced.empty() && !o.trace_out.empty()) {
      std::vector<const SpanRecorder*> recs;
      for (const SpanRecorder& r : traced) recs.push_back(&r);
      if (!WriteChromeTrace(o.trace_out, recs)) {
        result.errors.push_back("cannot write " + o.trace_out);
      }
    }
  }

  for (const std::string& e : all.errors) result.errors.push_back(e);
  if (!o.trace) {
    std::vector<const Phase*> phases;
    for (const Phase& p : measured) phases.push_back(&p);
    SetEndToEnd(result.report, setup_s, phases, rss);
  }
  if (all.errors.empty()) {
    result.report.Set("check_s", "s", check_s,
                      "serial replay and comparison, after each measurement");
  }
  result.attempted = all.commit_attempts + all.reads.size();
  return result;
}

/// --- bulk_wave -----------------------------------------------------------------

/// An embedded Engine with the fig. 7 fleet: `rules` monitor rules over
/// one inventory, each on its own copy of the paper's condition, with
/// benchmark-owned actions that count what they are handed.
struct BulkFixture {
  std::unique_ptr<Engine> engine;
  deltamon::workload::InventorySchema schema;
  uint64_t instances = 0;
  uint64_t action_calls = 0;
  uint64_t checks = 0;
  uint64_t rounds = 0;
  /// Traced-run instrumentation; disabled otherwise.
  SpanRecorder rec{0, false};
  std::vector<double> check_us;
  std::vector<double> action_us;
};

/// cnd(I) <- quantity(I,Q) AND threshold(I,T) AND Q < T
Status DefineCondition(BulkFixture& f, RelationId cnd) {
  using namespace deltamon::objectlog;
  Clause c;
  c.head_relation = cnd;
  c.num_vars = 3;
  c.var_names = {"I", "Q", "T"};
  c.head_args = {Term::Var(0)};
  c.body = {
      Literal::Relation(f.schema.quantity, {Term::Var(0), Term::Var(1)}),
      Literal::Relation(f.schema.threshold, {Term::Var(0), Term::Var(2)}),
      Literal::Compare(CompareOp::kLt, Term::Var(1), Term::Var(2)),
  };
  return f.engine->registry.Define(cnd, std::move(c), f.engine->db.catalog());
}

Result<std::unique_ptr<BulkFixture>> BuildBulk(const BulkSpec& spec,
                                               size_t threads) {
  auto f = std::make_unique<BulkFixture>();
  f->engine = std::make_unique<Engine>();
  deltamon::workload::InventoryConfig config;
  config.num_items = spec.items;
  DELTAMON_ASSIGN_OR_RETURN(f->schema,
                            deltamon::workload::BuildInventory(*f->engine,
                                                               config));
  BulkFixture* raw = f.get();
  deltamon::Catalog& catalog = f->engine->db.catalog();
  for (size_t k = 0; k < spec.rules; ++k) {
    const std::string name = "monitor_items_" + std::to_string(k);
    DELTAMON_ASSIGN_OR_RETURN(
        RelationId cnd,
        catalog.CreateDerivedFunction(
            "cnd_" + name,
            deltamon::FunctionSignature{
                {},
                {deltamon::ColumnType{deltamon::ValueKind::kObject,
                                      f->schema.item}}}));
    DELTAMON_RETURN_IF_ERROR(DefineCondition(*f, cnd));
    DELTAMON_ASSIGN_OR_RETURN(
        deltamon::rules::RuleId rule,
        f->engine->rules.CreateRule(
            name, cnd,
            [raw](Database&, const Tuple&, const std::vector<Tuple>& items) {
              ScopedSpan span(raw->rec, "rules.action");
              const uint64_t start = raw->rec.enabled() ? NowNs() : 0;
              raw->instances += items.size();
              ++raw->action_calls;
              if (raw->rec.enabled()) {
                raw->action_us.push_back(Micros(NowNs() - start));
              }
              return Status::OK();
            }));
    DELTAMON_RETURN_IF_ERROR(f->engine->rules.Activate(rule));
  }
  f->engine->rules.SetNumThreads(threads);
  f->engine->rules.SetKernelsEnabled(true);
  // The rule manager's own check phase, timed from outside.
  f->engine->db.SetCheckPhase([raw](Database& db) {
    ScopedSpan span(raw->rec, "rules.check_phase");
    const uint64_t start = raw->rec.enabled() ? NowNs() : 0;
    Status s = raw->engine->rules.CheckPhase(db);
    if (raw->rec.enabled()) raw->check_us.push_back(Micros(NowNs() - start));
    ++raw->checks;
    raw->rounds += raw->engine->rules.last_check().rounds;
    return s;
  });
  return f;
}

/// Timed samples of a traced bulk phase.
struct BulkSamples {
  std::vector<double> update_us;
  std::vector<double> commit_overhead_us;
};

Status TimedSet(Database& db, RelationId rel, Tuple args, Tuple results,
                BulkSamples* samples) {
  if (samples == nullptr) return db.Set(rel, args, results);
  const uint64_t start = NowNs();
  Status s = db.Set(rel, args, results);
  samples->update_us.push_back(Micros(NowNs() - start));
  return s;
}

void BulkClient(BulkFixture& f, const BulkSpec& spec, BulkStream& stream,
                Clock::time_point deadline, Tally& tally,
                BulkSamples* samples) {
  Database& db = f.engine->db;
  const auto& s = f.schema;
  while (Clock::now() < deadline) {
    const BulkRound round = stream.Next();
    ScopedSpan txn_span(f.rec, "txn");
    const uint64_t fired_before = f.instances;
    ++tally.commit_attempts;
    const Clock::time_point start = Clock::now();
    Status st;
    {
      ScopedSpan sets(f.rec, "db.set_all");
      for (size_t i = 0; i < s.items.size() && st.ok(); ++i) {
        const Value item(s.items[i]);
        st = TimedSet(db, s.quantity, Tuple{item},
                      Tuple{Value(round.QuantityOf(i))}, samples);
        if (st.ok()) {
          st = TimedSet(db, s.delivery_time, Tuple{item, Value(s.suppliers[i])},
                        Tuple{Value(round.delivery_time)}, samples);
        }
        if (st.ok()) {
          st = TimedSet(db, s.consume_freq, Tuple{item},
                        Tuple{Value(round.consume_freq)}, samples);
        }
      }
    }
    if (st.ok()) {
      ScopedSpan commit(f.rec, "db.commit");
      const uint64_t commit_start = NowNs();
      const size_t checks_before = f.check_us.size();
      st = db.Commit();
      if (samples != nullptr) {
        double overhead = Micros(NowNs() - commit_start);
        for (size_t i = checks_before; i < f.check_us.size(); ++i) {
          overhead -= f.check_us[i];
        }
        samples->commit_overhead_us.push_back(overhead);
      }
    }
    if (!st.ok()) {
      tally.Fail("round " + std::to_string(round.round) + ": " + st.ToString());
      return;
    }
    tally.Commit(start);
    const uint64_t fired = f.instances - fired_before;
    const uint64_t want = spec.rules * round.newly_crossing;
    if (fired != want) {
      tally.Fail("round " + std::to_string(round.round) + ": " +
                 std::to_string(fired) + " firing instances, generator predicts " +
                 std::to_string(want));
    }
    // One read: point reads of the probed items, each of which must hold
    // the quantity this round wrote.
    const Clock::time_point read_start = Clock::now();
    size_t wrong = 0;
    for (size_t i : round.probes) {
      Result<int64_t> v =
          deltamon::workload::GetFn(*f.engine, s.quantity, s.items[i]);
      if (!v.ok() || *v != round.QuantityOf(i)) ++wrong;
    }
    tally.Read(read_start);
    if (wrong > 0) {
      tally.Fail("round " + std::to_string(round.round) + ": " +
                 std::to_string(wrong) + " probed items read back wrong");
    }
  }
}

RunResult RunBulk(const RunOptions& o, size_t nproc) {
  RunResult result;
  const BulkSpec spec;
  Shape shape{1, 0, 0, Half(nproc), true};
  result.env = EnvStamp(o, nproc, shape);

  std::vector<double> setup_s;
  std::unique_ptr<BulkFixture> f;
  for (size_t i = 0; i < (o.trace ? 1 : kBulkSetups); ++i) {
    f.reset();
    const Clock::time_point start = Clock::now();
    Result<std::unique_ptr<BulkFixture>> built =
        BuildBulk(spec, shape.propagation_threads);
    if (!built.ok()) {
      result.errors.push_back("setup: " + built.status().ToString());
      return result;
    }
    f = std::move(*built);
    setup_s.push_back(SecondsSince(start));
  }
  BulkStream stream(spec, o.seed);
  auto run_phase = [&](double seconds, BulkSamples* samples) {
    return RunClosedLoop(1, seconds, [&](size_t, Clock::time_point dl,
                                         Tally& tally) {
      BulkClient(*f, spec, stream, dl, tally, samples);
    });
  };
  const Phase a = run_phase(o.trace ? o.seconds / 2 : o.seconds, nullptr);
  const double rss = PeakRssMiB();
  Tally all = a.tally;
  if (o.trace && a.tally.errors.empty()) {
    f->rec = SpanRecorder(1, true);
    f->check_us.clear();
    const uint64_t checks_before = f->checks;
    const uint64_t rounds_before = f->rounds;
    const uint64_t calls_before = f->action_calls;
    BulkSamples samples;
    ProgramSpanStats sink;
    obs::SetTraceSink(&sink);
    const Phase b = run_phase(o.seconds / 2, &samples);
    obs::SetTraceSink(nullptr);
    Report& r = result.report;
    const double commits = b.commits();
    SetNotExercised(r, {"net.wire_us", "net.queue_wait_us",
                        "net.queue_wait_p99_us", "net.reply_write_us",
                        "amosql.exec_us", "amosql.read_exec_us",
                        "txn.commit_queue_wait_us",
                        "txn.commit_queue_wait_p99_us", "txn.txns_per_wave",
                        "txn.aborts_per_commit", "txn.noop_commits"});
    SetSamples(r, "rules.check_us", "rules.check_p99_us", f->check_us, true,
               "time around RuleManager::CheckPhase");
    SetSamples(r, "rules.action_us", nullptr, f->action_us, true,
               "benchmark RuleAction callbacks");
    r.SetRatio("rules.rounds_per_check", "rounds/check",
               Ratio{static_cast<double>(f->rounds - rounds_before),
                     static_cast<double>(f->checks - checks_before),
                     "RuleManager::last_check().rounds", "check phases"});
    r.SetRatio("rules.firings_per_commit", "firings/commit",
               Ratio{static_cast<double>(f->action_calls - calls_before),
                     commits, "action calls", "commits"});
    SetSamples(r, "storage.update_us", nullptr, samples.update_us, true,
               "time around Database::Set");
    SetSamples(r, "storage.commit_overhead_us", nullptr,
               samples.commit_overhead_us, true,
               "Database::Commit - check phase");
    SetEngineLayers(r, b, commits, sink.Take());
    SetTraceOverhead(r, a, b);
    all.Merge(b.tally);
    if (!o.trace_out.empty() && !WriteChromeTrace(o.trace_out, {&f->rec})) {
      result.errors.push_back("cannot write " + o.trace_out);
    }
  }
  for (const std::string& e : all.errors) result.errors.push_back(e);
  if (!o.trace) SetEndToEnd(result.report, setup_s, {&a}, rss);
  result.attempted = all.commit_attempts + all.reads.size();
  return result;
}

}  // namespace

RunResult RunWorkload(const RunOptions& options) {
  const size_t nproc = std::max(1u, std::thread::hardware_concurrency());
  RunResult result = options.workload == "bulk_wave" ? RunBulk(options, nproc)
                                                     : RunNet(options, nproc);
  result.failed = result.errors.size();
  result.attempted = std::max(result.attempted, result.failed);
  if (!options.trace) {
    result.report.SetRatio(
        "error_ratio", "ratio",
        Ratio{static_cast<double>(result.failed),
              static_cast<double>(result.attempted), "failed operations",
              "attempted operations"});
  }
  return result;
}

}  // namespace perfbench
