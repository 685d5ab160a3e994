#ifndef DELTAMON_OBS_TRACE_H_
#define DELTAMON_OBS_TRACE_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "obs/bounded_log.h"

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

/// Keeps the most recent `capacity` events in a BoundedLog, for tests, the
/// TRACE statement and slow-statement capture. Overflow is not silent:
/// every displaced event bumps dropped_records() and the global
/// `obs.trace.dropped_events` counter (visible in SHOW METRICS), so a
/// truncated trace announces itself. OnEvent is synchronized: parallel
/// propagation emits spans from worker threads.
class RingTraceSink final : public TraceSink, public BoundedLog<TraceEvent> {
 public:
  explicit RingTraceSink(size_t capacity = 1024) : BoundedLog(capacity) {}

  void OnEvent(const TraceEvent& event) override;
};

/// Process-wide sink registration: receives the spans of every thread that
/// is not inside a request scope with a private sink (obs::TraceScope).
/// Null (the default) disables emission there. The caller owns the sink
/// and must uninstall it (SetTraceSink(nullptr)) before destroying it.
void SetTraceSink(TraceSink* sink);
TraceSink* GetTraceSink();

}  // namespace deltamon::obs

#endif  // DELTAMON_OBS_TRACE_H_
