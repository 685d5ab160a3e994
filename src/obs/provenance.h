#ifndef DELTAMON_OBS_PROVENANCE_H_
#define DELTAMON_OBS_PROVENANCE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "obs/bounded_log.h"
#include "obs/json.h"

/// --- Firing provenance ------------------------------------------------------
///
/// "Why did this rule fire?" — the flight-recorder answer. When provenance
/// is enabled (`set provenance on;`), the rule manager captures row-level
/// delta lineage during propagation (core::WaveLineage) and, for every
/// rule firing, records which condition instances fired, their full
/// lineage trees down to the originating base-relation Δ-rows, and the
/// request/commit identity of the wave (trace_id, commit version). The
/// records land in a BoundedLog (obs/bounded_log.h) served by
/// `explain firing`, `show provenance;` and the admin /debug/provenance
/// endpoint. The log owns the `set provenance` flag: every reader — the
/// check phase, `show settings;` and each document — sees one value.
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
  uint64_t seq = 0;  ///< assigned by BoundedLog::Record; 1-based
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

/// The most recent firings. Its flag is `set provenance on|off`: the rule
/// manager checks it before arming lineage capture (one relaxed load on
/// the no-provenance path; the lineage bookkeeping only exists while
/// enabled).
using ProvenanceLog = BoundedLog<FiringRecord>;

/// The process-wide provenance log behind `explain firing`,
/// `show provenance;` and /debug/provenance; empty (and never enabled)
/// under -DDELTAMON_OBS=OFF.
ProcessLog<FiringRecord>& GlobalProvenanceLog();

/// The /debug/provenance document: {enabled, capacity, total_records,
/// dropped_records, firings: [FiringRecord.ToJson()...]}.
Json ProvenanceJson(const std::vector<FiringRecord>& records, bool enabled,
                    size_t capacity, uint64_t total, uint64_t dropped);

/// `show provenance;` report: one block per firing, newest last.
std::string FormatProvenance(const std::vector<FiringRecord>& records,
                             bool enabled, uint64_t total, uint64_t dropped);

}  // namespace deltamon::obs

#endif  // DELTAMON_OBS_PROVENANCE_H_
