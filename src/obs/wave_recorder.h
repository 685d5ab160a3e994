#ifndef DELTAMON_OBS_WAVE_RECORDER_H_
#define DELTAMON_OBS_WAVE_RECORDER_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/tuple.h"
#include "obs/bounded_log.h"
#include "obs/json.h"

/// --- Wave capture (black-box recorder) --------------------------------------
///
/// When wave capture is enabled (`set wave_capture on;`), the rule manager
/// snapshots every check-phase propagation round: the influent
/// base-relation Δ-sets it consumed, the engine settings it ran with
/// (threads, kernels), the net root Δ-sets it produced, and the rule
/// firings that followed. The last 64 waves live in a BoundedLog
/// (obs/bounded_log.h) served by /debug/waves and dumped to a
/// `deltamon.wave.v1` file by `dump waves "path";` — which
/// tools/deltamon-replay re-executes against a rebuilt engine, asserting
/// bit-identical outcomes (the deterministic black-box recorder:
/// docs/observability.md). The log owns the `set wave_capture` flag.
///
/// Rows are stored as real Tuples (the obs layer sits above common) and
/// serialized as typed cells, so the file round-trips every Value kind —
/// including doubles (%.17g) and object ids — exactly.

namespace deltamon::obs {

/// One Value as a typed JSON cell: {"t": "null"|"b"|"i"|"d"|"s"|"o",
/// "v": ..., ["type": TypeId for "o"]}.
Json ValueToJson(const Value& v);
Result<Value> ValueFromJson(const Json& j);

/// A Tuple as an array of typed cells.
Json TupleToJson(const Tuple& t);
Result<Tuple> TupleFromJson(const Json& j);

/// Δ-set of one relation, rows sorted (Tuple::operator<) for
/// deterministic serialization. Relations are carried by name: the file
/// must survive a rebuild in which RelationIds differ.
struct WaveRelationDelta {
  std::string relation;
  std::vector<Tuple> plus;
  std::vector<Tuple> minus;

  bool operator==(const WaveRelationDelta& other) const {
    return relation == other.relation && plus == other.plus &&
           minus == other.minus;
  }

  Json ToJson() const;
  static Result<WaveRelationDelta> FromJson(const Json& j);
};

/// One captured propagation round of a check phase.
struct WaveRecord {
  uint64_t seq = 0;  ///< assigned by BoundedLog::Record; 1-based
  uint64_t trace_id = 0;
  uint64_t version = 0;  ///< commit version; 0 outside the txn manager
  uint64_t round = 0;    ///< 1-based round within the check phase; rounds
                         ///< past 1 consume deltas produced by rule actions
  uint64_t threads = 1;
  bool kernels = true;
  /// Influent base-relation Δ-sets the round consumed, sorted by name.
  std::vector<WaveRelationDelta> influents;
  /// Net root (monitored condition) Δ-sets the round produced, sorted by
  /// name; relations with empty nets are omitted.
  std::vector<WaveRelationDelta> roots;
  /// Rendered firings of the round, in execution order: "rule instance".
  std::vector<std::string> firings;

  Json ToJson() const;
  static Result<WaveRecord> FromJson(const Json& j);

  /// The replay-checked subset — round, influents, roots, firings — as
  /// JSON. Excludes identity stamps (seq, trace_id, version) and settings
  /// (threads, kernels): a replay under different settings must still
  /// produce a byte-identical outcome document.
  Json OutcomeJson() const;
};

/// The most recent captured waves. Its flag is `set wave_capture on|off`;
/// appends happen once per propagation round, far off the per-tuple hot
/// path.
using WaveRecorder = BoundedLog<WaveRecord>;

/// The process-wide recorder behind `dump waves` and /debug/waves; empty
/// (and never enabled) under -DDELTAMON_OBS=OFF.
ProcessLog<WaveRecord>& GlobalWaveRecorder();

/// The `deltamon.wave.v1` document: {schema, enabled?, capacity,
/// total_records, dropped_records, waves: [WaveRecord.ToJson()...]}.
/// Also the /debug/waves document.
Json WaveFileJson(const std::vector<WaveRecord>& records, bool enabled,
                  size_t capacity, uint64_t total, uint64_t dropped);

/// Strict loader: parses, checks schema == "deltamon.wave.v1", decodes
/// every wave. Used by deltamon-replay.
Result<std::vector<WaveRecord>> ParseWaveFile(const std::string& text);

}  // namespace deltamon::obs

#endif  // DELTAMON_OBS_WAVE_RECORDER_H_
