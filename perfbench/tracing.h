#ifndef PERFBENCH_TRACING_H_
#define PERFBENCH_TRACING_H_

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "obs/flight_recorder.h"
#include "obs/trace.h"

/// Traced-run instrumentation, all of it outside the program: spans the
/// benchmark records around its own calls into deltamon, a sink that
/// aggregates the spans the program already emits, and a poller that
/// collects the server's flight-recorder records.

namespace perfbench {

/// steady_clock in nanoseconds: the clock the flight recorder and the
/// program's spans use, so durations from all three sources subtract.
uint64_t NowNs();

struct SpanRecord {
  const char* name = "";
  uint64_t id = 0;
  uint64_t parent = 0;  ///< 0 for a root span
  uint64_t request_id = 0;
  uint32_t thread = 0;
  uint64_t start_ns = 0;
  uint64_t end_ns = 0;
};

/// One thread's benchmark spans, kept in memory until the run ends. A
/// disabled recorder records nothing and reads no clock.
class SpanRecorder {
 public:
  SpanRecorder(uint32_t thread, bool enabled)
      : thread_(thread), enabled_(enabled) {}

  bool enabled() const { return enabled_; }
  /// Opens a span whose parent is the innermost open one; returns its
  /// index for End (0 when disabled). `name` must outlive the recorder.
  size_t Begin(const char* name);
  /// Closes span `index`, attributing it to `request_id`.
  void End(size_t index, uint64_t request_id = 0);
  const std::vector<SpanRecord>& spans() const { return spans_; }

 private:
  uint32_t thread_;
  bool enabled_;
  std::vector<SpanRecord> spans_;
  std::vector<size_t> open_;
};

/// RAII span over one call.
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder& rec, const char* name)
      : rec_(rec), index_(rec.Begin(name)) {}
  ~ScopedSpan() { rec_.End(index_, request_id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  void set_request_id(uint64_t id) { request_id_ = id; }

 private:
  SpanRecorder& rec_;
  size_t index_;
  uint64_t request_id_ = 0;
};

/// Writes every span as a Chrome trace_event document (chrome://tracing,
/// ui.perfetto.dev). Returns false when the file cannot be written.
bool WriteChromeTrace(const std::string& path,
                      const std::vector<const SpanRecorder*>& recorders);

/// Aggregates the spans deltamon emits (propagation waves and nodes,
/// clause evaluations) as they end, so nothing is dropped and memory stays
/// proportional to the number of waves. Install with obs::SetTraceSink.
class ProgramSpanStats : public deltamon::obs::TraceSink {
 public:
  void OnEvent(const deltamon::obs::TraceEvent& event) override;

  struct Totals {
    std::vector<double> wave_us;
    double node_self_us = 0;
    std::vector<double> clause_self_us;
    uint64_t spans = 0;
  };
  Totals Take();

 private:
  std::mutex mu_;
  Totals totals_;
  /// Summed durations of ended children, by parent span id, until the
  /// parent itself ends.
  std::unordered_map<int64_t, int64_t> child_ns_;
};

/// Polls the process-wide flight recorder (the ring /debug/requests
/// serves) and keeps every record once, by trace id.
class FlightPoller {
 public:
  FlightPoller() = default;
  ~FlightPoller() { Stop(); }
  FlightPoller(const FlightPoller&) = delete;
  FlightPoller& operator=(const FlightPoller&) = delete;

  void Start();
  /// Stops polling after one last sweep.
  void Stop();

  const std::unordered_map<uint64_t, deltamon::obs::RequestRecord>& records()
      const {
    return records_;
  }
  /// Records the ring accepted while polling but displaced before a poll
  /// saw them.
  uint64_t dropped() const;

 private:
  void Poll();

  std::atomic<bool> stop_{false};
  uint64_t total_before_ = 0;
  uint64_t total_after_ = 0;
  std::unordered_map<uint64_t, deltamon::obs::RequestRecord> records_;
  std::thread thread_;
};

/// Trace id from a reply's "-- trace <id>: ..." line (0 when absent).
uint64_t TraceIdFromReport(const std::string& report);

}  // namespace perfbench

#endif  // PERFBENCH_TRACING_H_
