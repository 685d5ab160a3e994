#ifndef DELTAMON_OBS_PROFILE_H_
#define DELTAMON_OBS_PROFILE_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "obs/json.h"
#include "obs/metrics.h"  // DELTAMON_OBS_ENABLED

/// Per-literal execution profiles behind `explain analyze` / `analyze rule`.
///
/// The evaluator owns no shared profile: each worker's Evaluator writes into
/// its own Profile (exactly like EvalCache), and the propagator's serial
/// merge folds them in fixed level order. All counters are plain sums, so
/// the merged result is independent of which worker ran which node —
/// `explain analyze` output is bit-identical across thread counts (wall
/// time excluded; Format takes an include_time flag for exactly that).
///
/// Layering: obs depends only on common, so literal metadata is primitive —
/// the relation is carried as a raw uint32 id and the evaluator supplies
/// the display strings.

namespace deltamon::obs {

/// Schema tag of the JSON artifact `explain analyze "file.json" ...` writes.
inline constexpr char kProfileSchema[] = "deltamon.profile.v1";

/// True when `actual` rows disagree with the `est` estimate by more than a
/// factor of four in either direction. +1 smoothing on both sides keeps
/// zero-row results comparable; exactly 4x off is NOT flagged (boundary
/// covered by unit test).
bool Misestimated(double est, uint64_t actual);

/// One body-literal slot: static metadata (a deterministic function of the
/// clause and the stats visible at ordering time, so every worker computes
/// the same values and Merge keeps the first copy) plus counters summed
/// across executions and workers.
struct LiteralProfile {
  // -- metadata --
  std::string text;       ///< literal source text
  std::string access;     ///< "probe"/"scan"/"delta"/"compare"/"arith"/"anti"
  int display_rank = -1;  ///< position in the canonical evaluation order
  double est_rows = 0.0;  ///< optimizer row estimate per clause invocation
  uint32_t relation = 0;  ///< storage RelationId (0 for non-relation steps)
  int role = 0;           ///< objectlog::RelationRole as int
  int nbound = 0;         ///< pattern positions bound in canonical order

  // -- counters --
  uint64_t rows_in = 0;         ///< bindings that entered this step
  uint64_t bindings_tried = 0;  ///< candidate tuples / evaluations attempted
  uint64_t rows_out = 0;        ///< bindings handed to the next step
  uint64_t probes = 0;          ///< executions served by a bound/index lookup
  uint64_t scans = 0;           ///< executions scanning the full extent
  uint64_t time_ns = 0;         ///< cumulative inclusive nanoseconds

  /// Observed selectivity rows_out / bindings_tried; 0 when nothing tried.
  double Selectivity() const;
};

/// Charges a scope's wall time to a literal's profile slot. Inclusive:
/// deeper steps run inside the scope, so a literal's time covers
/// everything its bindings triggered downstream. Inactive — no clock
/// reads — when `slot` is null, i.e. no profiler is attached.
class LiteralSlotTimer {
 public:
  explicit LiteralSlotTimer(LiteralProfile* slot)
      : slot_(slot),
        start_(slot == nullptr ? std::chrono::steady_clock::time_point{}
                               : std::chrono::steady_clock::now()) {}
  LiteralSlotTimer(const LiteralSlotTimer&) = delete;
  LiteralSlotTimer& operator=(const LiteralSlotTimer&) = delete;
  ~LiteralSlotTimer() {
    if (slot_ == nullptr) return;
    auto elapsed = std::chrono::steady_clock::now() - start_;
    slot_->time_ns += static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(elapsed)
            .count());
  }

 private:
  LiteralProfile* slot_;
  std::chrono::steady_clock::time_point start_;
};

/// Profile of one clause, keyed by its stable label (relation#ordinal for
/// registry clauses, the differential name for network clauses). Slots are
/// indexed by body-literal position, NOT evaluation order, so probe paths
/// that re-order under different prebound sets fold into the same slots.
struct ClauseProfile {
  std::string label;
  std::string clause_text;
  uint64_t invocations = 0;
  std::vector<LiteralProfile> slots;

  void Merge(const ClauseProfile& other);
};

#if DELTAMON_OBS_ENABLED

/// Accumulator for any number of clauses. Not thread-safe by design: one
/// instance per worker, merged serially.
class Profile {
 public:
  /// Create-or-get the entry for `label`. The caller initializes slot
  /// metadata when the returned entry's `slots` is still empty.
  ClauseProfile* BeginClause(const std::string& label);

  /// Folds `other` into this profile: counters sum, metadata is kept from
  /// whichever side saw the clause first (they are identical by
  /// construction).
  void Merge(const Profile& other);

  bool empty() const { return clauses_.empty(); }
  void Clear() { clauses_.clear(); }
  const std::map<std::string, ClauseProfile>& clauses() const {
    return clauses_;
  }

  /// Human-readable per-literal table (est vs actual rows, selectivity,
  /// access kind, MISEST flag). `include_time` adds the cumulative-ns
  /// column — determinism comparisons pass false.
  std::string Format(bool include_time) const;

  /// The same data as a kProfileSchema JSON document.
  Json ToJson() const;

 private:
  std::map<std::string, ClauseProfile> clauses_;  ///< ordered: stable output
};

#else  // !DELTAMON_OBS_ENABLED

/// NullProfile: the same API with no storage, so every plumbing site
/// (evaluator, propagator, session) compiles unchanged while the profiler
/// itself is fully compiled out.
class Profile {
 public:
  ClauseProfile* BeginClause(const std::string&) { return nullptr; }
  void Merge(const Profile&) {}
  bool empty() const { return true; }
  void Clear() {}
  const std::map<std::string, ClauseProfile>& clauses() const;
  std::string Format(bool include_time) const;
  Json ToJson() const;
};

#endif  // DELTAMON_OBS_ENABLED

}  // namespace deltamon::obs

#endif  // DELTAMON_OBS_PROFILE_H_
