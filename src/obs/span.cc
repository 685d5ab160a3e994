#include "obs/span.h"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <unordered_map>

#include "obs/flight_recorder.h"
#include "obs/report.h"

namespace deltamon::obs {

namespace {

std::atomic<uint64_t> g_next_span_id{1};
std::atomic<int64_t> g_next_thread_index{1};

thread_local uint64_t t_current_span = 0;
thread_local int64_t t_thread_index = 0;
#if DELTAMON_OBS_ENABLED
thread_local TraceScope t_scope;
#endif

int64_t ThreadIndex() {
  if (t_thread_index == 0) {
    t_thread_index = g_next_thread_index.fetch_add(1,
                                                   std::memory_order_relaxed);
  }
  return t_thread_index;
}

constexpr const char* kSpanIdKey = "span_id";
constexpr const char* kParentKey = "parent_id";
constexpr const char* kThreadKey = "thread";
constexpr const char* kStartKey = "start_ns";
constexpr const char* kDurKey = "dur_ns";

bool IsBookkeepingField(const std::string& key) {
  return key == kSpanIdKey || key == kParentKey || key == kThreadKey ||
         key == kStartKey || key == kDurKey;
}

}  // namespace

Span::Span(const char* category, std::string_view name) {
  const TraceScope scope = CurrentTraceScope();
  sink_ = scope.sink != nullptr ? scope.sink : GetTraceSink();
  if (sink_ == nullptr) return;
  id_ = g_next_span_id.fetch_add(1, std::memory_order_relaxed);
  parent_ = t_current_span;
  t_current_span = id_;
  trace_id_ = scope.trace_id;
  category_ = category;
  name_ = name;
  start_ns_ = MonotonicNowNs();
}

Span::~Span() {
  if (sink_ == nullptr) return;
  uint64_t end_ns = MonotonicNowNs();
  t_current_span = parent_;
  TraceEvent event;
  event.category = category_;
  event.name = std::move(name_);
  event.fields.reserve(fields_.size() + 5);
  event.fields.emplace_back(kSpanIdKey, static_cast<int64_t>(id_));
  event.fields.emplace_back(kParentKey, static_cast<int64_t>(parent_));
  event.fields.emplace_back(kThreadKey, ThreadIndex());
  event.fields.emplace_back(kStartKey, static_cast<int64_t>(start_ns_));
  event.fields.emplace_back(kDurKey,
                            static_cast<int64_t>(end_ns - start_ns_));
  if (trace_id_ != 0) {
    event.fields.emplace_back("trace_id", static_cast<int64_t>(trace_id_));
  }
  for (auto& field : fields_) event.fields.push_back(std::move(field));
  sink_->OnEvent(event);
}

void Span::AddField(std::string_view key, int64_t value) {
  if (sink_ == nullptr) return;
  fields_.emplace_back(std::string(key), value);
}

void Span::SetName(std::string name) {
  if (sink_ == nullptr) return;
  name_ = std::move(name);
}

uint64_t Span::CurrentId() { return t_current_span; }

#if DELTAMON_OBS_ENABLED
ScopedTrace::ScopedTrace(const TraceScope& scope) : saved_(t_scope) {
  t_scope = scope;
}

ScopedTrace::~ScopedTrace() { t_scope = saved_; }

TraceScope CurrentTraceScope() { return t_scope; }
#endif

bool IsSpanEvent(const TraceEvent& event) {
  bool has_id = false;
  bool has_dur = false;
  for (const auto& [key, value] : event.fields) {
    (void)value;
    if (key == kSpanIdKey) has_id = true;
    if (key == kDurKey) has_dur = true;
  }
  return has_id && has_dur;
}

int64_t SpanField(const TraceEvent& event, const char* key, int64_t fallback) {
  for (const auto& [k, v] : event.fields) {
    if (k == key) return v;
  }
  return fallback;
}

Json ChromeEvent(std::string name, std::string category, int64_t ts_ns,
                 int64_t dur_ns, int64_t tid) {
  Json out = Json::Object();
  out.Set("name", std::move(name));
  out.Set("cat", std::move(category));
  out.Set("ph", "X");
  out.Set("ts", static_cast<double>(ts_ns) / 1000.0);
  out.Set("dur", static_cast<double>(dur_ns) / 1000.0);
  out.Set("pid", 1);
  out.Set("tid", tid);
  return out;
}

Json ChromeTraceJson(const std::vector<TraceEvent>& events) {
  // Normalize timestamps so the trace starts near zero — Perfetto handles
  // raw steady_clock values, but small numbers read better.
  int64_t min_start = 0;
  bool any = false;
  for (const TraceEvent& e : events) {
    if (!IsSpanEvent(e)) continue;
    int64_t start = SpanField(e, kStartKey, 0);
    if (!any || start < min_start) min_start = start;
    any = true;
  }

  Json trace_events = Json::Array();
  for (const TraceEvent& e : events) {
    if (!IsSpanEvent(e)) continue;
    Json out = ChromeEvent(e.name, e.category,
                           SpanField(e, kStartKey, 0) - min_start,
                           SpanField(e, kDurKey, 0),
                           SpanField(e, kThreadKey, 0));
    Json args = Json::Object();
    args.Set(kSpanIdKey, SpanField(e, kSpanIdKey, 0));
    args.Set(kParentKey, SpanField(e, kParentKey, 0));
    for (const auto& [key, value] : e.fields) {
      if (!IsBookkeepingField(key)) args.Set(key, value);
    }
    out.Set("args", std::move(args));
    trace_events.Append(std::move(out));
  }

  Json doc = Json::Object();
  doc.Set("traceEvents", std::move(trace_events));
  doc.Set("displayTimeUnit", "ms");
  return doc;
}

Status WriteChromeTrace(const std::vector<TraceEvent>& events,
                        const std::string& path) {
  return WriteTextFile(path, ChromeTraceJson(events).Dump());
}

std::string FormatSpanTree(const std::vector<TraceEvent>& events) {
  struct Record {
    const TraceEvent* event = nullptr;
    int64_t start = 0;
    std::vector<size_t> children;  // indexes into records, start order
  };
  std::vector<Record> records;
  std::unordered_map<int64_t, size_t> by_id;
  for (const TraceEvent& e : events) {
    if (!IsSpanEvent(e)) continue;
    Record r;
    r.event = &e;
    r.start = SpanField(e, kStartKey, 0);
    by_id.emplace(SpanField(e, kSpanIdKey, 0), records.size());
    records.push_back(std::move(r));
  }
  if (records.empty()) return "(no spans recorded)\n";

  std::vector<size_t> roots;
  for (size_t i = 0; i < records.size(); ++i) {
    int64_t parent = SpanField(*records[i].event, kParentKey, 0);
    auto it = by_id.find(parent);
    if (parent != 0 && it != by_id.end()) {
      records[it->second].children.push_back(i);
    } else {
      // Parent dropped from the ring or never recorded: promote to root.
      roots.push_back(i);
    }
  }
  auto by_start = [&records](size_t a, size_t b) {
    return records[a].start < records[b].start;
  };
  std::sort(roots.begin(), roots.end(), by_start);
  for (Record& r : records) {
    std::sort(r.children.begin(), r.children.end(), by_start);
  }

  std::string out;
  // Explicit stack (not recursion): ring contents are adversarial.
  std::vector<std::pair<size_t, int>> stack;
  for (auto it = roots.rbegin(); it != roots.rend(); ++it) {
    stack.emplace_back(*it, 0);
  }
  while (!stack.empty()) {
    auto [idx, depth] = stack.back();
    stack.pop_back();
    const Record& r = records[idx];
    const TraceEvent& e = *r.event;
    out.append(static_cast<size_t>(depth) * 2, ' ');
    out += e.category;
    out += ".";
    out += e.name;
    char buf[48];
    std::snprintf(buf, sizeof(buf), " %.3f ms",
                  static_cast<double>(SpanField(e, kDurKey, 0)) / 1e6);
    out += buf;
    std::string extras;
    for (const auto& [key, value] : e.fields) {
      if (IsBookkeepingField(key)) continue;
      if (!extras.empty()) extras += ", ";
      extras += key + "=" + std::to_string(value);
    }
    if (!extras.empty()) out += " {" + extras + "}";
    out += "\n";
    for (auto it = r.children.rbegin(); it != r.children.rend(); ++it) {
      stack.emplace_back(*it, depth + 1);
    }
  }
  return out;
}

}  // namespace deltamon::obs
