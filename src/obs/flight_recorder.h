#ifndef DELTAMON_OBS_FLIGHT_RECORDER_H_
#define DELTAMON_OBS_FLIGHT_RECORDER_H_

#include <atomic>
#include <cstdint>
#include <deque>
#include <mutex>
#include <string>
#include <vector>

#include "obs/json.h"
#include "obs/metrics.h"  // DELTAMON_OBS_ENABLED

/// --- Request-scoped tracing -------------------------------------------------
///
/// The server mints one RequestContext per QUERY frame and stamps phase
/// timestamps as the request moves through its life: enqueue (frame
/// parsed), dequeue (executor entry — evaluation starts), exec end, reply
/// queued, reply flushed to the kernel. While the statement executes, its
/// trace id is the worker thread's trace scope (obs/span.h), so every span
/// it causes — on pool workers and the commit leader too — carries it.
/// Completed records land in a fixed-capacity FlightRecorder ring served by
/// the admin HTTP endpoints (/debug/requests, /debug/requests/trace), and
/// statements over the --slow-statement-ms threshold additionally capture
/// their full span tree + literal profile into the SlowLog (/debug/slow,
/// `show slow;`).
///
/// Memory is strictly bounded: both the recorder and the slow log are
/// rings, and every displaced entry bumps a dropped counter so truncation
/// announces itself. Under -DDELTAMON_OBS=OFF the recorder compiles to the
/// NullFlightRecorder (no ring, no clock reads, no ids) while the admin
/// endpoints keep serving valid — empty — documents.

namespace deltamon::obs {

/// True when request tracing is compiled in; call sites guard clock reads
/// and id minting on this so OBS=OFF builds carry zero residue.
inline constexpr bool kRequestTracingEnabled = DELTAMON_OBS_ENABLED != 0;

/// steady_clock now, in nanoseconds — the clock every phase timestamp and
/// span start/duration uses, so cross-source arithmetic is meaningful.
uint64_t MonotonicNowNs();

/// Process-wide monotonic trace-id mint; first id is 1 (0 = "no trace").
uint64_t NextTraceId();

/// At most this many statement bytes are kept per record; longer
/// statements are truncated with a trailing ellipsis.
inline constexpr size_t kStatementPreviewBytes = 160;
std::string StatementPreview(const std::string& statement);

/// Identity of one request: minted when the QUERY frame is parsed, carried
/// through the executor into the span tree.
struct RequestContext {
  uint64_t trace_id = 0;
  uint64_t connection_id = 0;
  uint64_t session_id = 0;
  uint64_t statement_ordinal = 0;  ///< 1-based per connection
};

/// One completed (or connection-aborted) request with its phase
/// timestamps. All *_ns fields are MonotonicNowNs values; 0 = the phase
/// never happened (e.g. reply_flushed_ns on a connection that died before
/// its reply drained).
struct RequestRecord {
  RequestContext context;
  std::string statement;  ///< StatementPreview of the QUERY body
  bool ok = true;         ///< statement executed without error
  bool reply_flushed = false;
  uint64_t enqueue_ns = 0;        ///< QUERY frame parsed
  uint64_t dequeue_ns = 0;        ///< executor entry (eval start)
  uint64_t exec_end_ns = 0;       ///< statement finished (eval end)
  uint64_t reply_queued_ns = 0;   ///< reply bytes appended to the out buffer
  uint64_t reply_flushed_ns = 0;  ///< last reply byte accepted by the kernel
  uint64_t reply_bytes = 0;

  /// Group-commit phase, stamped only when the statement committed a
  /// transaction (commit_batch != 0): the commit version it received, the
  /// wave it was grouped into and how many transactions shared that wave,
  /// plus how long it waited in the commit queue and how long the wave's
  /// single check phase took.
  uint64_t commit_version = 0;
  uint64_t commit_batch = 0;
  uint64_t commit_batch_size = 0;
  uint64_t commit_queue_wait_ns = 0;
  uint64_t commit_check_ns = 0;

  /// Phase durations; saturate to 0 rather than underflow on skew.
  uint64_t QueueWaitNs() const;
  uint64_t ExecNs() const;
  uint64_t ReplyWriteNs() const;
  /// enqueue -> reply flushed (or the latest stamped phase when not).
  uint64_t TotalNs() const;

  Json ToJson() const;
};

/// Fixed-capacity ring of the most recent completed requests. One mutex
/// around a deque: writers are worker threads completing a flush (a few
/// appends per statement, far off the per-tuple hot path), readers are the
/// admin thread and tests.
class FlightRecorder {
 public:
  explicit FlightRecorder(size_t capacity = 256) : capacity_(capacity) {}
  FlightRecorder(const FlightRecorder&) = delete;
  FlightRecorder& operator=(const FlightRecorder&) = delete;

  void Record(RequestRecord record);
  /// Oldest-to-newest copy of the ring.
  std::vector<RequestRecord> Snapshot() const;
  /// Records displaced by overflow since construction (survives Clear).
  uint64_t dropped_records() const {
    return dropped_records_.load(std::memory_order_relaxed);
  }
  /// Records ever accepted.
  uint64_t total_records() const {
    return total_records_.load(std::memory_order_relaxed);
  }
  size_t capacity() const { return capacity_; }
  void Clear();

 private:
  const size_t capacity_;
  mutable std::mutex mu_;
  std::atomic<uint64_t> dropped_records_{0};
  std::atomic<uint64_t> total_records_{0};
  std::deque<RequestRecord> records_;
};

/// Compiled-out twin: every method folds away, so OBS=OFF servers carry no
/// ring, take no locks, and read no clocks — while /debug/requests still
/// serves a valid empty document.
struct NullFlightRecorder {
  NullFlightRecorder() = default;
  explicit NullFlightRecorder(size_t) {}
  void Record(const RequestRecord&) {}
  std::vector<RequestRecord> Snapshot() const { return {}; }
  uint64_t dropped_records() const { return 0; }
  uint64_t total_records() const { return 0; }
  size_t capacity() const { return 0; }
  void Clear() {}
};

#if DELTAMON_OBS_ENABLED
using RequestRecorder = FlightRecorder;
#else
using RequestRecorder = NullFlightRecorder;
#endif

/// Sets the capacity the process-wide recorder is constructed with
/// (deltamond --flight-records). Effective only if called before the
/// first GlobalRequestRecorder() use — the server does so during startup,
/// before any connection is accepted; later calls are ignored.
void SetGlobalFlightRecorderCapacity(size_t capacity);

/// The process-wide recorder behind /debug/requests.
RequestRecorder& GlobalRequestRecorder();

/// The /debug/requests document: {capacity, total_records,
/// dropped_records, requests: [RequestRecord.ToJson()...]}.
Json FlightRecorderJson(const std::vector<RequestRecord>& records,
                        size_t capacity, uint64_t total, uint64_t dropped);

/// Chrome/Perfetto trace_event document synthesized from request records:
/// per request one "request" span plus one span per phase, tid = the
/// connection id, timestamps normalized to the earliest enqueue. Loadable
/// in chrome://tracing and ui.perfetto.dev alongside ChromeTraceJson output.
Json RequestsChromeTraceJson(const std::vector<RequestRecord>& records);

/// One slow-log entry: the request identity plus the full evidence
/// captured while it ran — span tree, Chrome trace, literal profile.
struct SlowRecord {
  RequestContext context;
  std::string statement;  ///< full statement text (not the preview)
  bool ok = true;
  uint64_t elapsed_ns = 0;  ///< execution time (dequeue -> exec end)
  std::string span_tree;    ///< FormatSpanTree of the captured spans
  Json chrome_trace;        ///< ChromeTraceJson of the captured spans
  std::string profile_text;
  Json profile_json;

  Json ToJson() const;
};

/// Bounded ring of statements that exceeded the slow threshold. A process
/// global (like Registry::Global) so `show slow;` works from any session
/// — including a local shell attached to the same engine — not just the
/// connection that ran the slow statement. threshold_ns()==0 disables
/// capture entirely; the executor checks it before arming any
/// instrumentation, so an idle slow log costs one relaxed load.
class SlowLog {
 public:
  static SlowLog& Global();

  uint64_t threshold_ns() const {
    return threshold_ns_.load(std::memory_order_relaxed);
  }
  void set_threshold_ns(uint64_t ns) {
    threshold_ns_.store(ns, std::memory_order_relaxed);
  }

  void Record(SlowRecord record);
  std::vector<SlowRecord> Snapshot() const;
  uint64_t total_records() const {
    return total_records_.load(std::memory_order_relaxed);
  }
  uint64_t dropped_records() const {
    return dropped_records_.load(std::memory_order_relaxed);
  }
  size_t capacity() const { return capacity_; }
  void Clear();

  /// The /debug/slow document.
  Json ToJson() const;
  /// `show slow;` report: threshold, entry count, then per entry the
  /// statement, elapsed time, span tree and profile.
  std::string Format() const;

 private:
  SlowLog() = default;

  const size_t capacity_ = 32;
  std::atomic<uint64_t> threshold_ns_{0};
  mutable std::mutex mu_;
  std::atomic<uint64_t> dropped_records_{0};
  std::atomic<uint64_t> total_records_{0};
  std::deque<SlowRecord> records_;
};

}  // namespace deltamon::obs

#endif  // DELTAMON_OBS_FLIGHT_RECORDER_H_
