#include "obs/trace.h"

#include <atomic>

#include "obs/metrics.h"

namespace deltamon::obs {

namespace {
std::atomic<TraceSink*> g_sink{nullptr};
}  // namespace

std::string TraceEvent::ToString() const {
  std::string out = category + "." + name + "{";
  bool first = true;
  for (const auto& [key, value] : fields) {
    if (!first) out += ", ";
    first = false;
    out += key + "=" + std::to_string(value);
  }
  return out + "}";
}

void RingTraceSink::OnEvent(const TraceEvent& event) {
  if (Record(event)) DELTAMON_OBS_COUNT("obs.trace.dropped_events", 1);
}

void SetTraceSink(TraceSink* sink) {
  g_sink.store(sink, std::memory_order_release);
}

TraceSink* GetTraceSink() { return g_sink.load(std::memory_order_acquire); }

}  // namespace deltamon::obs
