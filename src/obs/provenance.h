#ifndef DELTAMON_OBS_PROVENANCE_H_
#define DELTAMON_OBS_PROVENANCE_H_

#include <atomic>
#include <cstdint>
#include <deque>
#include <mutex>
#include <string>
#include <vector>

#include "obs/json.h"
#include "obs/metrics.h"  // DELTAMON_OBS_ENABLED

/// --- Firing provenance ------------------------------------------------------
///
/// "Why did this rule fire?" — the flight-recorder answer. When provenance
/// is enabled (`set provenance on;`), the rule manager captures row-level
/// delta lineage during propagation (core::WaveLineage) and, for every
/// rule firing, records which condition instances fired, their full
/// lineage trees down to the originating base-relation Δ-rows, and the
/// request/commit identity of the wave (trace_id, commit version). The
/// records land in a bounded ring served by `explain firing`,
/// `show provenance;` and the admin /debug/provenance endpoint.
///
/// The obs layer sits below storage, so records carry *rendered* data:
/// relation names, Tuple::ToString rows, and pre-built lineage Json — the
/// rules layer does the rendering while it still has the catalog.

namespace deltamon::obs {

/// One rule firing: the rule, the wave identity, and per captured
/// instance its lineage tree. Lineage capture is capped (see
/// kMaxLineageInstances in the rules layer); captured_instances <
/// total_instances announces the truncation.
struct FiringRecord {
  uint64_t seq = 0;  ///< assigned by ProvenanceLog::Record; 1-based
  uint64_t trace_id = 0;
  /// Commit version of the wave that triggered the firing; 0 when the
  /// check phase ran outside the transaction manager.
  uint64_t version = 0;
  std::string rule;
  uint64_t round = 0;  ///< 1-based incremental round within the check phase
  /// Rendered condition instances, in the deterministic firing order
  /// (SortedTuples of the pending Δ+).
  std::vector<std::string> instances;
  /// Lineage trees (WaveLineage::Export) of the first captured_instances
  /// instances, parallel to `instances`.
  Json lineage = Json::Array();
  uint64_t captured_instances = 0;
  uint64_t total_instances = 0;

  Json ToJson() const;
};

/// Bounded ring of the most recent firings, plus the enable flag the
/// executor checks before arming lineage capture (one relaxed load on the
/// no-provenance path; the lineage bookkeeping only exists while
/// enabled).
class ProvenanceLog {
 public:
  explicit ProvenanceLog(size_t capacity = 128) : capacity_(capacity) {}
  ProvenanceLog(const ProvenanceLog&) = delete;
  ProvenanceLog& operator=(const ProvenanceLog&) = delete;

  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }
  void set_enabled(bool on) {
    enabled_.store(on, std::memory_order_relaxed);
  }

  /// Appends, assigning record.seq (monotonic, survives ring overflow).
  void Record(FiringRecord record);
  /// Oldest-to-newest copy of the ring.
  std::vector<FiringRecord> Snapshot() const;
  uint64_t total_records() const {
    return total_records_.load(std::memory_order_relaxed);
  }
  uint64_t dropped_records() const {
    return dropped_records_.load(std::memory_order_relaxed);
  }
  size_t capacity() const { return capacity_; }
  void Clear();

 private:
  const size_t capacity_;
  std::atomic<bool> enabled_{false};
  mutable std::mutex mu_;
  std::atomic<uint64_t> total_records_{0};
  std::atomic<uint64_t> dropped_records_{0};
  std::deque<FiringRecord> records_;
};

/// Compiled-out twin: enabled() is constant-false, so every capture site
/// folds away and OBS=OFF builds carry no ring — while /debug/provenance
/// still serves a valid empty document.
struct NullProvenanceLog {
  bool enabled() const { return false; }
  void set_enabled(bool) {}
  void Record(const FiringRecord&) {}
  std::vector<FiringRecord> Snapshot() const { return {}; }
  uint64_t total_records() const { return 0; }
  uint64_t dropped_records() const { return 0; }
  size_t capacity() const { return 0; }
  void Clear() {}
};

#if DELTAMON_OBS_ENABLED
using FiringProvenance = ProvenanceLog;
#else
using FiringProvenance = NullProvenanceLog;
#endif

/// The process-wide provenance log behind `explain firing` and
/// /debug/provenance.
FiringProvenance& GlobalProvenanceLog();

/// The /debug/provenance document: {enabled, capacity, total_records,
/// dropped_records, firings: [FiringRecord.ToJson()...]}.
Json ProvenanceJson(const std::vector<FiringRecord>& records, bool enabled,
                    size_t capacity, uint64_t total, uint64_t dropped);

/// `show provenance;` report: one block per firing, newest last.
std::string FormatProvenance(const std::vector<FiringRecord>& records,
                             bool enabled, uint64_t total, uint64_t dropped);

}  // namespace deltamon::obs

#endif  // DELTAMON_OBS_PROVENANCE_H_
