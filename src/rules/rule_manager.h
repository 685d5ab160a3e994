#ifndef DELTAMON_RULES_RULE_MANAGER_H_
#define DELTAMON_RULES_RULE_MANAGER_H_

#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/thread_pool.h"
#include "core/network.h"
#include "core/propagator.h"
#include "objectlog/registry.h"
#include "obs/provenance.h"
#include "obs/wave_recorder.h"
#include "storage/database.h"

namespace deltamon::rules {

using RuleId = uint32_t;
inline constexpr RuleId kInvalidRuleId = 0;

/// Rule execution semantics (paper §3.2). Strict: the action runs only for
/// instances whose condition turned from false to true in this transaction.
/// Nervous: the rule may also fire for instances that were already true
/// (over-reaction is tolerated; under-reaction never is).
enum class Semantics { kStrict, kNervous };

/// How rule conditions are monitored (paper §6 compares the first two;
/// §8 sketches the hybrid as future work).
enum class MonitorMode {
  kIncremental,  ///< partial differencing + propagation network
  kNaive,        ///< full recomputation + diff against a materialized
                 ///< previous extent
  kHybrid,       ///< per-round choice by estimated change volume
};

/// A set-oriented rule action (paper §1: "Set-oriented action execution is
/// supported since data can be passed from the condition to the action"):
/// invoked once per firing with the activation parameters and every
/// instance for which the condition became true, in sorted order.
using RuleAction = std::function<Status(
    Database& db, const Tuple& params, const std::vector<Tuple>& instances)>;

struct RuleOptions {
  Semantics semantics = Semantics::kStrict;
  /// Conflict resolution picks the triggered rule with the highest
  /// priority (ties: earliest activation).
  int priority = 0;
  /// Whether Δ− is propagated up to this rule's condition. Defaults to
  /// true for strict semantics (needed so net changes cancel across rule
  /// processing rounds) and false for nervous semantics (the paper's
  /// insertions-only optimization; negation inside the condition still
  /// forces the needed negative differentials below it).
  std::optional<bool> propagate_deletions;
  /// Number of leading condition columns that are rule parameters, bound
  /// at activation time (paper §3.1: "rules are activated and deactivated
  /// separately for different parameters").
  size_t num_params = 0;
};

/// Statistics for the most recent check phase.
struct CheckStats {
  size_t rounds = 0;
  size_t rule_firings = 0;
  size_t naive_recomputations = 0;
  size_t incremental_waves = 0;
  core::PropagationResult::Stats propagation;  // summed over waves

  void Reset() { *this = CheckStats{}; }
};

/// The active-rule engine: owns rules and their activations, maintains the
/// propagation network over all activated conditions, and implements the
/// deferred check phase invoked at Commit() (paper §3: "condition
/// evaluation is delayed until a check phase usually at commit time").
class RuleManager {
 public:
  /// Installs itself as `db`'s check phase.
  RuleManager(Database& db, objectlog::DerivedRegistry& registry);
  RuleManager(const RuleManager&) = delete;
  RuleManager& operator=(const RuleManager&) = delete;

  /// --- Rule definition and activation ----------------------------------

  /// Registers a CA rule. `condition` must be a derived relation defined
  /// in the registry; its first options.num_params columns are parameters.
  Result<RuleId> CreateRule(const std::string& name, RelationId condition,
                            RuleAction action, RuleOptions options = {});

  /// Activates a rule; `params` binds the leading parameter columns (must
  /// match options.num_params; pass {} for parameterless rules). Repeated
  /// activation with the same parameters is an error.
  Status Activate(RuleId rule, const Tuple& params = {});

  /// Deactivates the activation with the given parameters.
  Status Deactivate(RuleId rule, const Tuple& params = {});

  Result<RuleId> FindRule(const std::string& name) const;

  /// --- Monitoring configuration -----------------------------------------

  /// Switching modes invalidates maintained condition extents (they are
  /// only kept current by the mode that owns them); the next affected
  /// round rebuilds them from the rolled-back old state.
  void SetMode(MonitorMode mode);
  MonitorMode mode() const { return mode_; }

  /// Derived relations to keep as shared intermediate nodes instead of
  /// expanding (§7.1 node sharing). Takes effect on the next network
  /// rebuild (i.e. the next activation change or explicit rebuild).
  void SetNetworkOptions(core::BuildOptions options);

  /// Maximum rule-processing rounds per check phase before reporting a
  /// non-terminating rule set.
  void SetMaxRounds(size_t rounds) { max_rounds_ = rounds; }

  /// Worker threads for incremental propagation waves (level-synchronous
  /// parallelism; see PropagationOptions and docs/parallelism.md). 1 (the
  /// default) is the serial algorithm; 0 means hardware concurrency.
  /// Results are identical at any setting. The pool is kept alive across
  /// check phases, so waves only pay a wake-up, not thread creation.
  void SetNumThreads(size_t num_threads);
  size_t num_threads() const { return num_threads_; }

  /// Batch evaluation kernels for incremental waves (columnar Δ-tables,
  /// build–probe hash joins, semi-join pre-filters; docs/kernels.md).
  /// On by default; results are identical either way — only execution
  /// strategy (and the per-literal `access` labels in profiles) changes.
  /// Exposed in AMOSQL as `set kernels on|off`.
  void SetKernelsEnabled(bool on) { kernels_enabled_ = on; }
  bool kernels_enabled() const { return kernels_enabled_; }

  /// The per-worker evaluation caches persisted across incremental waves
  /// (retained indexed extents; see EvalCache::BeginWave). Exposed for the
  /// retention regression tests.
  const std::vector<objectlog::EvalCache>& eval_caches() const {
    return eval_caches_;
  }

  /// Attaches a per-literal profiler for subsequent check-phase work:
  /// incremental waves pass it through PropagationOptions (per-worker
  /// profiles, serial merge — bit-identical at any thread count); naive
  /// recomputations and activation-time materializations attach it to
  /// their evaluator directly. Owned by the caller; nullptr detaches.
  void SetProfiler(obs::Profile* profiler) { profiler_ = profiler; }

  /// The profiler attached for the current check phase (null when
  /// detached). Rule actions read this instead of caching session state:
  /// under group commit the check phase — and thus any action — may run on
  /// the commit leader's thread on behalf of another session, and only the
  /// manager knows whose profile (if any) is armed for this wave.
  obs::Profile* profiler() const { return profiler_; }

  /// Row-level firing provenance (`set provenance on|off`): incremental
  /// waves capture delta lineage (PropagationOptions::lineage) and every
  /// firing records its instances' lineage trees — stamped with the
  /// current trace id and commit version — into the global ProvenanceLog
  /// behind `explain firing` / /debug/provenance. Forced off when
  /// observability is compiled out (the session layer reports the error);
  /// off (the default) adds zero work to the check phase.
  void SetProvenanceEnabled(bool on) {
    provenance_enabled_ = on && DELTAMON_OBS_ENABLED != 0;
    obs::GlobalProvenanceLog().set_enabled(provenance_enabled_);
  }
  bool provenance_enabled() const { return provenance_enabled_; }

  /// Wave capture (`set wave_capture on|off`): every incremental round is
  /// snapshotted — influent Δ-sets, settings, net root Δ-sets, firings —
  /// into the global WaveRecorder behind `dump waves` / /debug/waves,
  /// replayable by tools/deltamon-replay. Forced off when observability is
  /// compiled out.
  void SetWaveCaptureEnabled(bool on) {
    wave_capture_enabled_ = on && DELTAMON_OBS_ENABLED != 0;
    obs::GlobalWaveRecorder().set_enabled(wave_capture_enabled_);
  }
  bool wave_capture_enabled() const { return wave_capture_enabled_; }

  /// Commit version the current check phase runs on behalf of. Like the
  /// profiler, this is attach/detach state owned by the commit leader: the
  /// txn manager pre-assigns versions during validation, stamps the wave's
  /// version here before CheckPhase and clears it (0) after, so provenance
  /// and wave records carry the exact version a firing became visible at.
  void SetCommitVersion(uint64_t version) { commit_version_ = version; }

  /// Delta lineage accumulated over the last check phase's incremental
  /// waves (empty unless provenance is enabled). Exposed for the
  /// determinism tests; `explain firing` reads the pre-rendered trees in
  /// the ProvenanceLog instead.
  const core::WaveLineage& last_lineage() const { return lineage_; }

  /// PF-style evaluation (paper §2 contrast): keep every derived network
  /// node's extent materialized and incrementally maintained, so partial
  /// differentials read stored (indexed) views instead of re-deriving
  /// sub-conditions. Costs residency (see
  /// CheckStats::propagation.materialized_resident_tuples) and forces
  /// deletion propagation; only honored in kIncremental mode. Most useful
  /// together with §7.1 node sharing (bushy networks).
  void SetMaterializeIntermediates(bool on);

  /// --- Introspection -----------------------------------------------------

  /// The current propagation network (rebuilt lazily); null when nothing
  /// is activated.
  Result<const core::PropagationNetwork*> network();

  /// The condition relations currently monitored for `rule` — one per
  /// activation (parameterized activations monitor specialized conditions),
  /// or the rule's base condition when it has no activations. Used by
  /// `show network <rule>` to pick the subgraph roots.
  Result<std::vector<RelationId>> MonitoredConditions(RuleId rule) const;

  const CheckStats& last_check() const { return last_check_; }
  /// Executed differentials of the last check phase, for explainability.
  const std::vector<core::TraceEntry>& last_trace() const {
    return last_trace_;
  }
  /// Which influents caused `rule`'s condition to change in the last check
  /// phase, e.g. "Δ+cnd_monitor_items/Δ+quantity: 1 -> 1 tuples".
  std::vector<std::string> ExplainLastTrigger(RuleId rule) const;

  /// The deferred check phase; installed into the Database at
  /// construction. Public for tests.
  Status CheckPhase(Database& db);

 private:
  struct Rule {
    RuleId id = kInvalidRuleId;
    std::string name;
    RelationId condition = kInvalidRelationId;
    RuleAction action;
    RuleOptions options;
  };

  struct Activation {
    uint32_t id = 0;
    RuleId rule = kInvalidRuleId;
    Tuple params;
    /// The (possibly parameter-specialized) condition relation monitored
    /// for this activation.
    RelationId condition = kInvalidRelationId;
    /// Base relations this condition depends on.
    std::vector<RelationId> influents;
    /// Net condition changes accumulated across rounds of the current
    /// check phase (∪Δ), so only logical (net) changes fire the rule.
    DeltaSet pending;
    /// Naive monitor state: the materialized previous condition extent.
    TupleSet naive_extent;
    bool naive_extent_valid = false;
  };

  Status RebuildNetwork();
  /// Creates the specialized condition relation for (rule, params).
  Result<RelationId> SpecializeCondition(const Rule& rule,
                                         const Tuple& params);
  Activation* FindActivation(RuleId rule, const Tuple& params);
  /// Conflict resolution: among activations with non-empty pending Δ+,
  /// pick highest priority, then lowest activation id. Null if none.
  Activation* PickTriggered();

  Status RunIncrementalRound(
      Database& db, const std::unordered_map<RelationId, DeltaSet>& deltas);
  Status RunNaiveRound(
      Database& db, const std::unordered_map<RelationId, DeltaSet>& deltas);

  Database& db_;
  objectlog::DerivedRegistry& registry_;
  MonitorMode mode_ = MonitorMode::kIncremental;
  core::BuildOptions build_options_;
  size_t max_rounds_ = 1000;
  size_t num_threads_ = 1;
  /// Sized to num_threads_; null while serial.
  std::unique_ptr<common::ThreadPool> pool_;
  bool kernels_enabled_ = true;
  /// Per-worker EvalCaches handed to every incremental wave via
  /// PropagationOptions::caches; retained entries survive across waves
  /// (and check phases) until their inputs change. Resized with the
  /// thread setting and cleared on network rebuilds.
  std::vector<objectlog::EvalCache> eval_caches_;

  RuleId next_rule_id_ = 1;
  uint32_t next_activation_id_ = 1;
  uint32_t specialization_counter_ = 0;
  std::unordered_map<RuleId, Rule> rules_;
  std::unordered_map<std::string, RuleId> rules_by_name_;
  std::vector<Activation> activations_;

  std::unique_ptr<core::PropagationNetwork> network_;
  bool network_dirty_ = false;
  bool materialize_intermediates_ = false;
  obs::Profile* profiler_ = nullptr;
  core::MaterializedViewStore view_store_;
  bool view_store_ready_ = false;
  bool provenance_enabled_ = false;
  bool wave_capture_enabled_ = false;
  uint64_t commit_version_ = 0;
  CheckStats last_check_;
  std::vector<core::TraceEntry> last_trace_;
  /// Merged lineage of the current/last check phase (see last_lineage()).
  core::WaveLineage lineage_;
  /// Net root Δ-sets of the last incremental round, kept for wave capture.
  std::unordered_map<RelationId, DeltaSet> last_round_roots_;
};

}  // namespace deltamon::rules

#endif  // DELTAMON_RULES_RULE_MANAGER_H_
