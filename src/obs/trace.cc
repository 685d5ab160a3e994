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
  if (capacity_ == 0) {
    dropped_events_.fetch_add(1, std::memory_order_relaxed);
    DELTAMON_OBS_COUNT("obs.trace.dropped_events", 1);
    return;
  }
  std::lock_guard<std::mutex> lock(mu_);
  if (events_.size() == capacity_) {
    events_.pop_front();
    dropped_events_.fetch_add(1, std::memory_order_relaxed);
    DELTAMON_OBS_COUNT("obs.trace.dropped_events", 1);
  }
  events_.push_back(event);
}

void SetTraceSink(TraceSink* sink) {
  g_sink.store(sink, std::memory_order_release);
}

TraceSink* GetTraceSink() { return g_sink.load(std::memory_order_acquire); }

}  // namespace deltamon::obs
