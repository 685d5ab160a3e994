#ifndef DELTAMON_OBJECTLOG_EVAL_H_
#define DELTAMON_OBJECTLOG_EVAL_H_

#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <unordered_map>
#include <vector>

#include "delta/delta_set.h"
#include "delta/delta_view.h"
#include "objectlog/ast.h"
#include "objectlog/registry.h"
#include "obs/profile.h"
#include "storage/database.h"
#include "storage/snapshot.h"
#include "storage/stats_store.h"

namespace deltamon::objectlog {

/// The evaluation context tying a clause evaluation to database states:
///  - `deltas` supplies, per relation, the Δ-set accumulated so far. It is
///    read by Δ-role literals of partial differentials, and used to
///    reconstruct the OLD state of base relations via logical rollback
///    (paper fig. 3: S_old = (S_new ∪ Δ−S) − Δ+S).
/// Relations without an entry are treated as unchanged (OLD == NEW).
struct StateContext {
  const std::unordered_map<RelationId, DeltaSet>* deltas = nullptr;
  /// Materialized extents of derived relations (e.g. from a
  /// core::MaterializedViewStore). When a derived relation has an entry it
  /// is scanned like a stored relation — indexed, with OLD state by
  /// rollback over `deltas` — instead of being re-derived from its
  /// definition.
  const std::unordered_map<RelationId, const BaseRelation*>* views = nullptr;

  /// Per-node override used by the propagator: DeltaFor(overlay_rel)
  /// answers `*overlay_delta` instead of consulting `deltas`, shadowing any
  /// entry there. This lets one node's evaluation see a private Δ-set (the
  /// recursive fixpoint frontier) without mutating the wave map other
  /// nodes — possibly on other threads — are concurrently reading. The
  /// pointee may be updated between evaluations; the pointer must stay
  /// valid for the evaluator's lifetime.
  RelationId overlay_rel = kInvalidRelationId;
  const DeltaSet* overlay_delta = nullptr;

  /// Relation whose `views` entry is ignored, as if absent. While a node's
  /// own Δ-set is being computed, point queries against it (the §7.2
  /// filters) must evaluate its *definition* — its maintained extent is
  /// still the pre-wave state. Same thread-safety motivation as the
  /// overlay: hiding via context beats extracting from the shared map.
  RelationId hidden_view = kInvalidRelationId;

  /// Non-null while a session statement evaluates inside an open
  /// transaction: every NEW-state read of a *stored* relation sees the
  /// transaction's view (store − overlay.minus ∪ overlay.plus) and is
  /// recorded into the snapshot's read footprint for commit-time
  /// validation. Propagation contexts never set this — the check phase
  /// runs after overlays are applied, against the shared store.
  TxnSnapshot* txn = nullptr;

  const DeltaSet* DeltaFor(RelationId rel) const {
    if (rel == overlay_rel && overlay_delta != nullptr) return overlay_delta;
    if (deltas == nullptr) return nullptr;
    auto it = deltas->find(rel);
    return it == deltas->end() ? nullptr : &it->second;
  }

  const BaseRelation* ViewFor(RelationId rel) const {
    if (views == nullptr || rel == hidden_view) return nullptr;
    auto it = views->find(rel);
    return it == views->end() ? nullptr : it->second;
  }
};

/// Memoizes fully materialized extents of derived relations per
/// (relation, state) during one evaluation wave, so bushy networks and
/// repeated sub-queries don't recompute views.
class EvalCache {
 public:
  TupleSet* Find(RelationId rel, EvalState state);
  TupleSet* Insert(RelationId rel, EvalState state, TupleSet extent);

  /// Indexed extents (used for recursive relations, whose materializations
  /// are probed many times with bound columns during fixpoint evaluation).
  /// `retainable` marks an entry as safe to survive BeginWave: the extent
  /// was computed from shared state only (no node-local overlay, hidden
  /// view, or transaction snapshot leaked into it).
  BaseRelation* FindIndexed(RelationId rel, EvalState state);
  BaseRelation* InsertIndexed(RelationId rel, EvalState state,
                              std::unique_ptr<BaseRelation> extent,
                              bool retainable = false);

  void Clear() {
    extents_.clear();
    indexed_.clear();
  }

  /// Opens a new propagation wave. Positional extents are always dropped
  /// (wave-scoped memoization, cheap to rebuild); indexed extents — the
  /// expensive recursive-fixpoint materializations — persist across waves
  /// unless they are non-retainable or `drop(rel, state)` reports that the
  /// extent's inputs may have changed since it was built.
  void BeginWave(const std::function<bool(RelationId, EvalState)>& drop);

  /// Lifetime counters for the retention regression tests: indexed extents
  /// built vs. served from a previous insert (hits within one wave and
  /// across retained waves both count as reuses).
  uint64_t indexed_inserts() const { return indexed_inserts_; }
  uint64_t indexed_reuses() const { return indexed_reuses_; }

 private:
  /// (relation, state) packed into one word: hot lookups hash a uint64_t
  /// instead of walking a std::map of pairs. Pointers into the mapped
  /// values stay valid across rehash (std::unordered_map guarantee), which
  /// Find/Insert rely on.
  static uint64_t Key(RelationId rel, EvalState state) {
    return (static_cast<uint64_t>(rel) << 32) |
           static_cast<uint32_t>(static_cast<int>(state));
  }

  struct IndexedEntry {
    std::unique_ptr<BaseRelation> extent;
    bool retainable = false;
  };

  std::unordered_map<uint64_t, TupleSet> extents_;
  std::unordered_map<uint64_t, IndexedEntry> indexed_;
  uint64_t indexed_inserts_ = 0;
  uint64_t indexed_reuses_ = 0;
};

/// One derivation of a partial differential's head row: `delta_row` is the
/// influent Δ-row the clause's Δ-role generator bound when `head` was
/// produced (the row-level "which influent caused it" answer).
struct Derivation {
  Tuple head;
  Tuple delta_row;
};
using Derivations = std::vector<Derivation>;

/// Evaluates ObjectLog clauses against a database, honoring per-literal
/// state (NEW/OLD) and Δ-role annotations produced by the differencer.
/// Single-threaded; borrows all its inputs.
class Evaluator {
 public:
  struct Stats {
    uint64_t clause_evals = 0;
    uint64_t literal_probes = 0;   // relation literal evaluations started
    uint64_t tuples_examined = 0;  // tuples produced by scans/probes
    uint64_t bindings_produced = 0;  // variables bound by literal matches
  };

  /// `cache` may be null; a private cache is then used per call.
  Evaluator(const Database& db, const DerivedRegistry& registry,
            StateContext ctx, EvalCache* cache = nullptr);

  /// Publishes the accumulated Stats into the global obs registry
  /// (`eval.*` counters) — one batch per evaluator lifetime, so the
  /// per-tuple hot paths only ever touch the local struct.
  ~Evaluator();

  /// Appends to `out` every head tuple derivable from `clause`. Δ-role
  /// literals read ctx.deltas; kOld literals read the rolled-back state.
  /// When `derivations` is non-null, the same evaluation also appends one
  /// (head, Δ-row) pair per derivation found — possibly repeating a pair
  /// reached along several join paths; the clause must then have exactly
  /// one Δ-role literal, as every partial differential does.
  Status EvaluateClause(const Clause& clause, TupleSet* out,
                        Derivations* derivations = nullptr);

  /// Like EvaluateClause, with some variables pre-bound (e.g. binding a
  /// rule's condition instance while evaluating its action arguments).
  Status EvaluateClauseWithBindings(
      const Clause& clause,
      const std::vector<std::pair<int, Value>>& bindings, TupleSet* out,
      Derivations* derivations = nullptr);

  /// Materializes the full extent of `rel` (base or derived) in `state`.
  /// For derived relations in kOld, every transitive base literal is
  /// evaluated in the old state.
  Status Evaluate(RelationId rel, EvalState state, TupleSet* out);

  /// Point query: is `t` in the extent of `rel` in `state`? Implemented
  /// without materializing the extent (binds the head and checks
  /// satisfiability). Used by the §7.2 strict-semantics filters.
  Result<bool> Derivable(RelationId rel, EvalState state, const Tuple& t);

  /// Collects the tuples of `rel` in `state` matching `pattern` (bound
  /// positions are pushed down: indexed for base relations, head bindings
  /// for derived ones, group restriction for aggregates).
  Status Probe(RelationId rel, EvalState state, const ScanPattern& pattern,
               TupleSet* out);

  const Stats& stats() const { return stats_; }

  /// Attaches a per-literal profiler: every clause evaluated from now on
  /// records rows-in / bindings-tried / rows-out / probe-vs-scan / time
  /// into `profile` (owned by the caller; pass nullptr to detach). One
  /// profile per evaluator — the propagator gives each worker its own and
  /// merges them serially, exactly like EvalCache.
  void SetProfiler(obs::Profile* profile) { profiler_ = profile; }

  /// Enables the batch (set-at-a-time) execution path for EvaluateClause:
  /// eligible partial differentials evaluate through columnar Δ-tables and
  /// build–probe hash-join kernels (see docs/kernels.md) instead of the
  /// tuple-at-a-time interpreter; ineligible clauses (aggregates, foreign
  /// or recursive literals, non-equi bindings, transactional contexts)
  /// silently fall back. Off by default — the propagator switches it on
  /// per PropagationOptions::kernels.
  void EnableKernels(bool on) { kernels_ = on; }
  bool kernels_enabled() const { return kernels_; }

  /// Chooses an execution order for `body` (indexes into it): the Δ-role
  /// generator first, then greedily by boundness — filters and binders as
  /// soon as evaluable, then indexed probes (most bound args first), then
  /// scans. Exposed for tests.
  static std::vector<size_t> OrderBody(const std::vector<Literal>& body,
                                       int num_vars);

  /// Overload with pre-bound variables (e.g. a probed view's head bindings
  /// or EvaluateClauseWithBindings' initial environment).
  static std::vector<size_t> OrderBody(const std::vector<Literal>& body,
                                       int num_vars,
                                       const std::vector<bool>& initial_bound);

  /// Overload consulting observed selectivities: within the indexed-probe
  /// band, a probe whose (relation, role, nbound) key has recorded stats is
  /// scored by how selective it proved to be instead of by raw boundness.
  /// With `stats` null or the key unseen, behaves exactly like the
  /// boundness-only overloads. Internal evaluation passes the catalog's
  /// StatsStore here; the two-/three-argument forms forward nullptr.
  static std::vector<size_t> OrderBody(const std::vector<Literal>& body,
                                       int num_vars,
                                       const std::vector<bool>& initial_bound,
                                       const StatsStore* stats);

 private:
  using Env = std::vector<std::optional<Value>>;

  /// Runs one clause — the interpreter's only path into EvalBody: binds the
  /// head arguments to the engaged positions of `head_pattern` (returning
  /// at once when a bound value contradicts a head constant or a repeated
  /// head variable), orders the body around every variable bound so far in
  /// `env`, and evaluates it, calling `emit` per satisfying environment
  /// until `emit` sets `*stop` (null: run to completion). `state` kOld
  /// forces every extent literal into the OLD state; kNew keeps each
  /// literal's own annotation. Counts one clause_evals per call, feasible
  /// or not.
  Status RunClause(const Clause& clause, const ScanPattern& head_pattern,
                   Env env, EvalState state,
                   const std::function<Status(const Env&)>& emit,
                   bool* stop = nullptr);

  /// Sets `*out` to the tuple of `terms`' values under `env`.
  Status Project(const std::vector<Term>& terms, const Env& env,
                 Tuple* out) const;

  /// How a read of `rel`'s extent (a stored relation, materialized view or
  /// foreign function) in `state` meets its Δ-set: OLD reads roll
  /// ctx.deltas back; NEW reads of a `stored` relation inside a transaction
  /// see its overlay; everything else reads the extent as is.
  DeltaView ReadView(RelationId rel, EvalState state, bool stored) const;

  /// Forces every extent-role literal into `state` when state_override is
  /// engaged (used to evaluate a whole relation in the old state).
  /// `prof` (nullable) receives per-literal counters, indexed by body
  /// position so re-ordered probe-path evaluations fold into the same
  /// slots. Dispatches once to EvalBodyImpl<kProfiled> so the detached
  /// path (prof == nullptr) recurses through an instantiation with every
  /// profiler branch folded away.
  Status EvalBody(const Clause& clause, const std::vector<size_t>& order,
                  size_t step, Env& env,
                  std::optional<EvalState> state_override,
                  const std::function<Status(const Env&)>& emit, bool* stop,
                  obs::ClauseProfile* prof);

  template <bool kProfiled>
  Status EvalBodyImpl(const Clause& clause, const std::vector<size_t>& order,
                      size_t step, Env& env,
                      std::optional<EvalState> state_override,
                      const std::function<Status(const Env&)>& emit,
                      bool* stop, obs::ClauseProfile* prof);

  /// Create-or-get the attached profiler's entry for `clause`, counting
  /// one invocation. On first sight, fills the per-slot metadata (literal
  /// text, canonical rank, access kind, estimated rows) from the canonical
  /// no-prebound order — a deterministic function of the clause and the
  /// stats visible at ordering time, so every worker computes identical
  /// metadata. Returns nullptr when no profiler is attached.
  obs::ClauseProfile* BeginClauseProfile(const Clause& clause);

  /// Cardinality guess for the optimizer's estimate chain: the extent size
  /// for stored relations and materialized views, a nominal constant for
  /// derived relations that would need materializing to count.
  double ExtentEstimate(RelationId rel) const;

  /// Scans the extent of `rel` in `state` matching `pattern`.
  Status ScanRelation(RelationId rel, EvalState state,
                      const ScanPattern& pattern,
                      const std::function<bool(const Tuple&)>& fn);

  /// Scans an aggregate view (§8 extension): folds the (possibly
  /// group-restricted) source extent and emits (group..., value) tuples.
  Status ScanAggregate(RelationId rel, const AggregateDef& def,
                       EvalState state, const ScanPattern& pattern,
                       const std::function<bool(const Tuple&)>& fn);

  /// Materializes a recursive relation's extent by naive fixpoint
  /// iteration (paper §5 footnote: "fixed point techniques") into the
  /// cache as an indexed relation; self-references inside the definition
  /// read the previous rounds' partial extent. Returns the cached extent.
  Result<const BaseRelation*> FixpointMaterialize(RelationId rel,
                                                  EvalState state);

  /// Membership of `t` in `rel`'s extent in `state`.
  Result<bool> Contains(RelationId rel, EvalState state, const Tuple& t);

  Result<Value> TermValue(const Term& term, const Env& env) const;

  /// Batch kernel entry point (eval_kernel.cc): attempts to evaluate the
  /// whole clause set-at-a-time over a columnar Δ-table. Returns true if it
  /// handled the clause (out filled), false to fall back to the
  /// tuple-at-a-time interpreter (ineligible shape). `derivations` as in
  /// EvaluateClause.
  Result<bool> TryEvaluateClauseKernel(const Clause& clause, TupleSet* out,
                                       Derivations* derivations);

  /// True when a materialized extent of `rel` depends only on shared state:
  /// no transaction snapshot, and no relation in its dependency closure is
  /// shadowed by this context's overlay or hidden view. Such extents may be
  /// retained in the cache across waves (EvalCache::BeginWave).
  bool CacheRetainSafe(RelationId rel) const;

  const Database& db_;
  const DerivedRegistry& registry_;
  StateContext ctx_;
  EvalCache* cache_;
  EvalCache own_cache_;
  Stats stats_;
  obs::Profile* profiler_ = nullptr;
  bool kernels_ = false;
};

}  // namespace deltamon::objectlog

#endif  // DELTAMON_OBJECTLOG_EVAL_H_
