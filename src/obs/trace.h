#ifndef DELTAMON_OBS_TRACE_H_
#define DELTAMON_OBS_TRACE_H_

#include <atomic>
#include <cstdint>
#include <deque>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace deltamon::obs {

/// One structured trace event: a category + name and a flat list of
/// integer fields. Spans (obs/span.h) are the producers: each ends as one
/// event carrying its id, parent, thread and timing as bookkeeping fields
/// next to its own (relation ids, tuple counts), so the span-tree printer
/// and the Chrome-trace exporter read a single stream.
struct TraceEvent {
  std::string category;  // e.g. "propagation", "rules"
  std::string name;      // e.g. "wave", "fire:monitor_items"
  std::vector<std::pair<std::string, int64_t>> fields;

  /// `category.name{k=v, ...}`.
  std::string ToString() const;
};

/// Receives trace events. Implementations must tolerate events from any
/// subsystem and from several threads at once (pool workers emit the
/// spans of the wave they evaluate).
class TraceSink {
 public:
  virtual ~TraceSink() = default;
  virtual void OnEvent(const TraceEvent& event) = 0;
};

/// Keeps the most recent `capacity` events in memory (older events are
/// dropped), for tests, the PROFILE command, and TRACE recording. Overflow
/// is not silent: every displaced event bumps dropped_events() and the
/// global `obs.trace.dropped_events` counter (visible in SHOW METRICS), so
/// a truncated trace announces itself.
/// OnEvent is internally synchronized: parallel propagation emits spans
/// from worker threads. Reading events() while another thread still emits
/// is not synchronized — consumers (tests, TRACE, the profiler) read only
/// after the traced work has joined.
class RingTraceSink : public TraceSink {
 public:
  explicit RingTraceSink(size_t capacity = 1024) : capacity_(capacity) {}

  void OnEvent(const TraceEvent& event) override;

  const std::deque<TraceEvent>& events() const { return events_; }
  /// Events displaced by overflow since construction (survives Clear).
  uint64_t dropped_events() const {
    return dropped_events_.load(std::memory_order_relaxed);
  }
  void Clear() {
    std::lock_guard<std::mutex> lock(mu_);
    events_.clear();
  }

 private:
  size_t capacity_;
  std::mutex mu_;
  std::atomic<uint64_t> dropped_events_{0};
  std::deque<TraceEvent> events_;
};

/// Process-wide sink registration: receives the spans of every thread that
/// is not inside a request scope with a private sink (obs::TraceScope).
/// Null (the default) disables emission there. The caller owns the sink
/// and must uninstall it (SetTraceSink(nullptr)) before destroying it.
void SetTraceSink(TraceSink* sink);
TraceSink* GetTraceSink();

}  // namespace deltamon::obs

#endif  // DELTAMON_OBS_TRACE_H_
