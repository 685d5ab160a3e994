#include "obs/flight_recorder.h"

#include <chrono>
#include <cstdio>
#include <utility>

#include "obs/span.h"

namespace deltamon::obs {

namespace {

std::atomic<uint64_t> g_next_trace_id{0};

/// a - b, clamped at 0: phase stamps come from one steady clock but a
/// record aborted mid-flight leaves later phases at 0.
uint64_t Since(uint64_t a, uint64_t b) { return a > b ? a - b : 0; }

std::string FormatMs(uint64_t ns) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.3f ms", static_cast<double>(ns) / 1e6);
  return buf;
}

}  // namespace

uint64_t MonotonicNowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

uint64_t NextTraceId() {
  return g_next_trace_id.fetch_add(1, std::memory_order_relaxed) + 1;
}

std::string StatementPreview(const std::string& statement) {
  if (statement.size() <= kStatementPreviewBytes) return statement;
  return statement.substr(0, kStatementPreviewBytes) + "...";
}

uint64_t RequestRecord::QueueWaitNs() const {
  return Since(dequeue_ns, enqueue_ns);
}

uint64_t RequestRecord::ExecNs() const { return Since(exec_end_ns, dequeue_ns); }

uint64_t RequestRecord::ReplyWriteNs() const {
  return Since(reply_flushed_ns, reply_queued_ns);
}

uint64_t RequestRecord::TotalNs() const {
  uint64_t end = reply_flushed_ns;
  if (end == 0) end = reply_queued_ns;
  if (end == 0) end = exec_end_ns;
  if (end == 0) end = dequeue_ns;
  return Since(end, enqueue_ns);
}

Json RequestRecord::ToJson() const {
  Json out = Json::Object();
  out.Set("trace_id", static_cast<int64_t>(context.trace_id));
  out.Set("connection_id", static_cast<int64_t>(context.connection_id));
  out.Set("session_id", static_cast<int64_t>(context.session_id));
  out.Set("statement_ordinal",
          static_cast<int64_t>(context.statement_ordinal));
  out.Set("statement", statement);
  out.Set("ok", ok);
  out.Set("reply_flushed", reply_flushed);
  out.Set("reply_bytes", static_cast<int64_t>(reply_bytes));
  out.Set("enqueue_ns", static_cast<int64_t>(enqueue_ns));
  Json phases = Json::Object();
  phases.Set("queue_wait_ns", static_cast<int64_t>(QueueWaitNs()));
  phases.Set("exec_ns", static_cast<int64_t>(ExecNs()));
  phases.Set("reply_write_ns", static_cast<int64_t>(ReplyWriteNs()));
  phases.Set("total_ns", static_cast<int64_t>(TotalNs()));
  out.Set("phases", std::move(phases));
  if (commit_batch != 0) {
    Json commit = Json::Object();
    commit.Set("version", static_cast<int64_t>(commit_version));
    commit.Set("batch", static_cast<int64_t>(commit_batch));
    commit.Set("batch_size", static_cast<int64_t>(commit_batch_size));
    commit.Set("queue_wait_ns", static_cast<int64_t>(commit_queue_wait_ns));
    commit.Set("check_ns", static_cast<int64_t>(commit_check_ns));
    out.Set("commit", std::move(commit));
  }
  return out;
}

namespace {
std::atomic<size_t> g_flight_capacity{256};
}  // namespace

void SetGlobalFlightRecorderCapacity(size_t capacity) {
  g_flight_capacity.store(capacity, std::memory_order_relaxed);
}

RequestRecorder& GlobalRequestRecorder() {
  static RequestRecorder* recorder =
      new RequestRecorder(g_flight_capacity.load(std::memory_order_relaxed));
  return *recorder;
}

Json FlightRecorderJson(const std::vector<RequestRecord>& records,
                        size_t capacity, uint64_t total, uint64_t dropped) {
  Json requests = Json::Array();
  for (const RequestRecord& r : records) requests.Append(r.ToJson());
  Json out = Json::Object();
  out.Set("capacity", static_cast<int64_t>(capacity));
  out.Set("total_records", static_cast<int64_t>(total));
  out.Set("dropped_records", static_cast<int64_t>(dropped));
  out.Set("requests", std::move(requests));
  return out;
}

Json RequestsChromeTraceJson(const std::vector<RequestRecord>& records) {
  uint64_t min_ns = 0;
  bool any = false;
  for (const RequestRecord& r : records) {
    if (!any || r.enqueue_ns < min_ns) min_ns = r.enqueue_ns;
    any = true;
  }
  Json events = Json::Array();
  for (const RequestRecord& r : records) {
    const int64_t tid = static_cast<int64_t>(r.context.connection_id);
    Json request = ChromeEvent("request", "net",
                               static_cast<int64_t>(r.enqueue_ns - min_ns),
                               static_cast<int64_t>(r.TotalNs()), tid);
    Json args = Json::Object();
    args.Set("trace_id", static_cast<int64_t>(r.context.trace_id));
    args.Set("statement_ordinal",
             static_cast<int64_t>(r.context.statement_ordinal));
    args.Set("statement", r.statement);
    request.Set("args", std::move(args));
    events.Append(std::move(request));
    auto phase = [&](const char* name, uint64_t start_ns, uint64_t dur_ns) {
      events.Append(ChromeEvent(name, "net",
                                static_cast<int64_t>(start_ns - min_ns),
                                static_cast<int64_t>(dur_ns), tid));
    };
    if (r.dequeue_ns != 0) phase("queue_wait", r.enqueue_ns, r.QueueWaitNs());
    if (r.exec_end_ns != 0) phase("execute", r.dequeue_ns, r.ExecNs());
    if (r.reply_flushed_ns != 0) {
      phase("reply_write", r.reply_queued_ns, r.ReplyWriteNs());
    }
  }
  Json doc = Json::Object();
  doc.Set("traceEvents", std::move(events));
  doc.Set("displayTimeUnit", "ms");
  return doc;
}

Json SlowRecord::ToJson() const {
  Json out = Json::Object();
  out.Set("trace_id", static_cast<int64_t>(context.trace_id));
  out.Set("connection_id", static_cast<int64_t>(context.connection_id));
  out.Set("session_id", static_cast<int64_t>(context.session_id));
  out.Set("statement_ordinal",
          static_cast<int64_t>(context.statement_ordinal));
  out.Set("statement", statement);
  out.Set("ok", ok);
  out.Set("elapsed_ns", static_cast<int64_t>(elapsed_ns));
  out.Set("span_tree", span_tree);
  out.Set("chrome_trace", chrome_trace);
  out.Set("profile_text", profile_text);
  out.Set("profile", profile_json);
  return out;
}

SlowLog& SlowLog::Global() {
  static SlowLog* log = new SlowLog();
  return *log;
}

Json SlowLog::ToJson() const {
  const LogRead<SlowRecord> read = Read();
  Json entries = Json::Array();
  for (const SlowRecord& r : read.records) entries.Append(r.ToJson());
  Json out = Json::Object();
  out.Set("threshold_ns", static_cast<int64_t>(threshold_ns()));
  out.Set("capacity", static_cast<int64_t>(read.capacity));
  out.Set("total_records", static_cast<int64_t>(read.total));
  out.Set("dropped_records", static_cast<int64_t>(read.dropped));
  out.Set("slow", std::move(entries));
  return out;
}

std::string SlowLog::Format() const {
  const LogRead<SlowRecord> read = Read();
  std::string out = "SLOW STATEMENTS (threshold ";
  out += threshold_ns() == 0 ? std::string("off") : FormatMs(threshold_ns());
  out += ", " + std::to_string(read.records.size()) + " recorded";
  if (read.dropped > 0) {
    out += ", " + std::to_string(read.dropped) + " dropped";
  }
  out += ")\n";
  for (const SlowRecord& r : read.records) {
    out += "[trace " + std::to_string(r.context.trace_id) + "] conn " +
           std::to_string(r.context.connection_id) + " stmt " +
           std::to_string(r.context.statement_ordinal) + ": " +
           FormatMs(r.elapsed_ns) + (r.ok ? "" : " (error)") + "\n";
    out += "  statement: " + StatementPreview(r.statement) + "\n";
    out += "  spans:\n";
    // Indent the captured span tree under the entry.
    size_t pos = 0;
    while (pos < r.span_tree.size()) {
      size_t eol = r.span_tree.find('\n', pos);
      if (eol == std::string::npos) eol = r.span_tree.size();
      out += "    " + r.span_tree.substr(pos, eol - pos) + "\n";
      pos = eol + 1;
    }
    if (!r.profile_text.empty()) {
      out += "  profile:\n" + r.profile_text;
    }
  }
  return out;
}

}  // namespace deltamon::obs
