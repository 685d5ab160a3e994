#ifndef DELTAMON_CORE_PROPAGATOR_H_
#define DELTAMON_CORE_PROPAGATOR_H_

#include <string>
#include <unordered_map>
#include <vector>

#include "core/lineage.h"
#include "core/materialized_views.h"
#include "core/network.h"
#include "delta/delta_set.h"
#include "objectlog/eval.h"
#include "storage/database.h"

namespace deltamon::common {
class ThreadPool;
}  // namespace deltamon::common

namespace deltamon::core {

/// One executed partial differential, recorded for explainability (paper
/// §1, §8: "one can easily determine which influents actually caused a rule
/// to trigger and if it was triggered by an insertion or a deletion").
struct TraceEntry {
  RelationId target = kInvalidRelationId;
  RelationId influent = kInvalidRelationId;
  bool reads_plus = true;
  bool produces_plus = true;
  size_t tuples_consumed = 0;
  size_t tuples_produced = 0;

  std::string ToString(const Catalog& catalog) const;
};

/// Result of one propagation wave.
struct PropagationResult {
  /// Net Δ-sets of the monitored condition relations (the network roots),
  /// after the §7.2 corrections.
  std::unordered_map<RelationId, DeltaSet> root_deltas;
  /// Executed differentials, in execution order.
  std::vector<TraceEntry> trace;

  /// Row-level delta lineage of the wave; empty unless
  /// PropagationOptions::lineage was set. Folded serially in level order
  /// (like trace/stats/profiles), so it is bit-identical at any thread
  /// count and with kernels on or off.
  WaveLineage lineage;

  /// Per-wave counters. This struct is a *snapshot view*: the canonical
  /// cross-wave accounting lives in the global obs registry (the
  /// `propagator.*` metrics), fed exactly once per wave by
  /// PublishToRegistry(). Callers that want "what happened in this wave"
  /// read the struct; callers that want trajectories read the registry.
  struct Stats {
    size_t differentials_executed = 0;
    /// Differentials skipped because their influent side was empty — the
    /// payoff of partial differencing in small transactions (paper §1).
    size_t differentials_skipped = 0;
    size_t tuples_propagated = 0;
    /// Peak number of tuples simultaneously held in intermediate
    /// ("wave-front") Δ-sets, measuring the space optimization of §5.
    size_t peak_wavefront_tuples = 0;
    /// Tuples removed by the strict / presence filters (§7.2).
    size_t filtered_plus = 0;
    size_t filtered_minus = 0;
    /// Tuples resident in materialized intermediate views after the wave
    /// (0 when running without a MaterializedViewStore).
    size_t materialized_resident_tuples = 0;

    /// Folds this wave into the global obs registry (`propagator.*`);
    /// called by Propagator::Propagate on success. No-op when
    /// instrumentation is compiled out or disabled at run time.
    void PublishToRegistry() const;
  };
  Stats stats;

  /// Influents (with polarity) whose differentials produced tuples for
  /// `root` — the "why did this rule trigger" answer.
  std::vector<TraceEntry> Explain(RelationId root) const;
};

/// Execution knobs for one propagation wave.
struct PropagationOptions {
  /// Pool whose workers evaluate each level (level-synchronous
  /// parallelism): every node of one network level reads only Δ-sets of
  /// strictly lower nodes plus base state, so the nodes of a level evaluate
  /// concurrently and their outputs are merged into the wave in the level's
  /// fixed node order — making root_deltas, the TraceEntry sequence and
  /// Stats bit-identical at any worker count. Its num_workers() is the
  /// parallelism; null (the default) is the classic serial algorithm.
  /// Long-lived callers (RuleManager) keep one pool sized to their thread
  /// setting.
  common::ThreadPool* pool = nullptr;
  /// When non-null, every clause evaluated during the wave records
  /// per-literal counters: each worker writes a private profile and the
  /// serial merge folds them — into this global profile and into each
  /// NetworkNode's `profile` — in fixed level order, so the result is
  /// bit-identical at any thread count. Null (the default) keeps the
  /// evaluator's profiling branches dormant.
  obs::Profile* profiler = nullptr;
  /// Per-worker evaluation caches that outlive the wave. When non-null
  /// (and sized >= the effective worker count), Propagate calls
  /// BeginWave() on each — dropping wave-scoped extents but retaining
  /// indexed recursive-fixpoint materializations whose inputs did not
  /// change — instead of constructing fresh caches. Long-lived callers
  /// (RuleManager) pass their own vector; null keeps the old
  /// fresh-caches-per-wave behavior.
  std::vector<objectlog::EvalCache>* caches = nullptr;
  /// Route eligible partial differentials through the batch evaluation
  /// kernels (columnar Δ-tables, build–probe hash joins, semi-join
  /// pre-filters; docs/kernels.md). Results are identical either way;
  /// per-literal `access` labels in profiles reflect the chosen strategy.
  bool kernels = true;
  /// Capture row-level delta lineage into PropagationResult::lineage: each
  /// differential still evaluates once, and that evaluation also reports
  /// the influent Δ-row behind every derivation (Evaluator::EvaluateClause
  /// `derivations`), so each produced tuple is attributed to the exact rows
  /// it was derived from. Root Δ-sets, traces and stats are unchanged; the
  /// extra cost is the lineage bookkeeping (see docs/observability.md for
  /// the model). Off (the default) adds no work to the hot path.
  bool lineage = false;
};

/// Executes the breadth-first bottom-up propagation algorithm (paper §5)
/// over a PropagationNetwork:
///
///   for each level (starting with the lowest)
///     for each changed node (non-empty Δ-set)
///       for each edge to an above node
///         execute the partial differential(s) and accumulate the result
///         in the Δ-set of the node above using ∪Δ
///
/// Δ-sets of intermediate nodes are discarded as soon as every parent has
/// been processed (the "wave-front" materialization of §5); base Δ-sets
/// stay live for the whole wave because OLD-state reconstruction by logical
/// rollback needs them.
///
/// With a multi-worker options.pool the inner loop runs data-parallel per
/// level (see PropagationOptions and docs/parallelism.md); results are
/// deterministic and identical to the serial mode.
class Propagator {
 public:
  /// `views`, when non-null, switches to PF-style evaluation: derived
  /// nodes' extents are read from (and maintained in) the store instead of
  /// re-derived, trading residency for evaluation work (paper §2 contrast;
  /// see MaterializedViewStore). The store must have been initialized for
  /// this network and requires deletions to be propagated everywhere.
  Propagator(const Database& db, const objectlog::DerivedRegistry& registry,
             const PropagationNetwork& network,
             MaterializedViewStore* views = nullptr,
             PropagationOptions options = {})
      : db_(db),
        registry_(registry),
        network_(network),
        views_(views),
        options_(options) {}

  /// Runs one wave from the given base-relation Δ-sets (typically
  /// Database::TakePendingDeltas()). Entries for relations outside the
  /// network are ignored.
  Result<PropagationResult> Propagate(
      const std::unordered_map<RelationId, DeltaSet>& base_deltas) const;

 private:
  /// Everything one node's evaluation produces. Workers fill NodeOutputs
  /// independently; MergeNode folds them into the wave serially, in the
  /// level's node order, so the serial and parallel modes share one
  /// accumulation path (and therefore one result).
  struct NodeOutput {
    Status status = Status::OK();
    DeltaSet acc;
    std::vector<TraceEntry> trace;
    PropagationResult::Stats stats;
    /// Per-literal clause profiles from this node's evaluation; empty
    /// unless PropagationOptions::profiler is set.
    obs::Profile profile;
    /// Row-level lineage fragment; empty unless PropagationOptions::lineage
    /// is set. Folded into the result serially by MergeNode.
    WaveLineage lineage;
  };

  /// Evaluates one node against the frozen lower-level state: runs its
  /// partial differentials, the self-edge fixpoint, and the §7.2 filters.
  /// Reads `wave` and `view_map` but never mutates them (per-node overlay
  /// and view hiding go through the evaluator's StateContext), so any
  /// number of same-level ProcessNode calls may run concurrently.
  Status ProcessNode(
      RelationId rel, size_t level,
      const std::unordered_map<RelationId, DeltaSet>& wave,
      const std::unordered_map<RelationId, const BaseRelation*>& view_map,
      objectlog::EvalCache* cache, NodeOutput* out) const;

  /// Folds one node's output into the running wave state: trace append,
  /// stats fold, view apply, wave insert, peak accounting, and wave-front
  /// discard of exhausted children. Serial by construction.
  Status MergeNode(RelationId rel, NodeOutput* out, PropagationResult* result,
                   std::unordered_map<RelationId, DeltaSet>* wave,
                   size_t* wavefront,
                   std::unordered_map<RelationId, size_t>* pending_parents)
      const;

  const Database& db_;
  const objectlog::DerivedRegistry& registry_;
  const PropagationNetwork& network_;
  MaterializedViewStore* views_ = nullptr;
  PropagationOptions options_;
};

}  // namespace deltamon::core

#endif  // DELTAMON_CORE_PROPAGATOR_H_
