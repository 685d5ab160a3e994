#include "tracing.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <utility>

#include "obs/span.h"

namespace perfbench {

namespace obs = deltamon::obs;

uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

size_t SpanRecorder::Begin(const char* name) {
  if (!enabled_) return 0;
  SpanRecord s;
  s.name = name;
  s.id = (static_cast<uint64_t>(thread_) << 40) | (spans_.size() + 1);
  s.parent = open_.empty() ? 0 : spans_[open_.back()].id;
  s.thread = thread_;
  s.start_ns = NowNs();
  open_.push_back(spans_.size());
  spans_.push_back(s);
  return spans_.size();
}

void SpanRecorder::End(size_t index, uint64_t request_id) {
  if (index == 0) return;
  SpanRecord& s = spans_[index - 1];
  s.end_ns = NowNs();
  s.request_id = request_id;
  if (!open_.empty() && open_.back() == index - 1) open_.pop_back();
}

bool WriteChromeTrace(const std::string& path,
                      const std::vector<const SpanRecorder*>& recorders) {
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  uint64_t origin = UINT64_MAX;
  for (const SpanRecorder* r : recorders) {
    for (const SpanRecord& s : r->spans()) origin = std::min(origin, s.start_ns);
  }
  std::fputs("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[", f);
  bool first = true;
  for (const SpanRecorder* r : recorders) {
    for (const SpanRecord& s : r->spans()) {
      std::fprintf(
          f,
          "%s\n{\"name\":\"%s\",\"cat\":\"perfbench\",\"ph\":\"X\","
          "\"ts\":%.3f,\"dur\":%.3f,\"pid\":1,\"tid\":%u,\"args\":{"
          "\"span_id\":%llu,\"parent_id\":%llu,\"request_id\":%llu}}",
          first ? "" : ",", s.name,
          static_cast<double>(s.start_ns - origin) / 1e3,
          static_cast<double>(s.end_ns - s.start_ns) / 1e3, s.thread,
          static_cast<unsigned long long>(s.id),
          static_cast<unsigned long long>(s.parent),
          static_cast<unsigned long long>(s.request_id));
      first = false;
    }
  }
  std::fputs("\n]}\n", f);
  return std::fclose(f) == 0;
}

void ProgramSpanStats::OnEvent(const obs::TraceEvent& event) {
  if (!obs::IsSpanEvent(event)) return;
  const int64_t id = obs::SpanField(event, "span_id", 0);
  const int64_t parent = obs::SpanField(event, "parent_id", 0);
  const int64_t dur = obs::SpanField(event, "dur_ns", 0);
  std::lock_guard<std::mutex> lock(mu_);
  ++totals_.spans;
  if (parent != 0) child_ns_[parent] += dur;
  int64_t self = dur;
  if (auto it = child_ns_.find(id); it != child_ns_.end()) {
    self -= it->second;
    child_ns_.erase(it);
  }
  const double self_us = static_cast<double>(std::max<int64_t>(self, 0)) / 1e3;
  if (event.category == "propagation") {
    if (event.name == "wave") {
      totals_.wave_us.push_back(static_cast<double>(dur) / 1e3);
    } else if (event.name.starts_with("node")) {
      totals_.node_self_us += self_us;
    }
  } else if (event.category == "eval" && event.name.starts_with("clause")) {
    totals_.clause_self_us.push_back(self_us);
  }
}

ProgramSpanStats::Totals ProgramSpanStats::Take() {
  std::lock_guard<std::mutex> lock(mu_);
  child_ns_.clear();
  return std::exchange(totals_, Totals{});
}

void FlightPoller::Start() {
  obs::RequestRecorder& recorder = obs::GlobalRequestRecorder();
  total_before_ = recorder.total_records();
  // Records already in the ring belong to the untraced phase: empty
  // placeholders keep Poll from collecting them, and Stop drops them.
  for (const obs::RequestRecord& r : recorder.Snapshot()) {
    records_.emplace(r.context.trace_id, obs::RequestRecord{});
  }
  stop_.store(false);
  thread_ = std::thread([this] {
    while (!stop_.load()) {
      Poll();
      std::this_thread::sleep_for(std::chrono::milliseconds(25));
    }
  });
}

void FlightPoller::Stop() {
  if (!thread_.joinable()) return;
  stop_.store(true);
  thread_.join();
  total_after_ = obs::GlobalRequestRecorder().total_records();
  Poll();
  std::erase_if(records_,
                [](const auto& kv) { return kv.second.enqueue_ns == 0; });
}

void FlightPoller::Poll() {
  for (obs::RequestRecord& r : obs::GlobalRequestRecorder().Snapshot()) {
    records_.try_emplace(r.context.trace_id, std::move(r));
  }
}

uint64_t FlightPoller::dropped() const {
  const uint64_t accepted = total_after_ - total_before_;
  return accepted > records_.size() ? accepted - records_.size() : 0;
}

uint64_t TraceIdFromReport(const std::string& report) {
  const size_t at = report.rfind("-- trace ");
  if (at == std::string::npos) return 0;
  return std::strtoull(report.c_str() + at + 9, nullptr, 10);
}

}  // namespace perfbench
