#ifndef DELTAMON_CORE_NETWORK_H_
#define DELTAMON_CORE_NETWORK_H_

#include <array>
#include <atomic>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "objectlog/ast.h"
#include "objectlog/eval.h"
#include "objectlog/registry.h"
#include "obs/profile.h"
#include "storage/catalog.h"

namespace deltamon::core {

/// One generated partial differential ΔP/Δ±X (paper §4.3–4.4): a clause in
/// which one occurrence of the influent X has been replaced by a Δ-role
/// literal, and every other relation literal is annotated with the state it
/// must be evaluated in (NEW for differentials producing insertions, OLD
/// for differentials producing deletions).
struct PartialDifferential {
  RelationId target = kInvalidRelationId;    ///< the affected relation P
  RelationId influent = kInvalidRelationId;  ///< the changed relation X
  /// Aggregate edge (§8 extension): consumes both sides of ΔX and
  /// re-aggregates the affected groups in the old and new states; `clause`
  /// is unused.
  bool aggregate = false;
  /// Which side of X's Δ-set this differential consumes.
  bool reads_plus = true;
  /// Whether the produced tuples are insertions into P (Δ+P) or deletions
  /// (Δ−P).
  bool produces_plus = true;
  /// The occurrence this differential substitutes (for explainability).
  size_t clause_index = 0;
  size_t literal_index = 0;
  objectlog::Clause clause;
  /// Batch-kernel plans of `clause`, one per liveness variant: [0] plain,
  /// [1] with derivations (lineage capture). Compiled when the network is
  /// built and again when the StatsStore moves (RefreshKernelPlans); the
  /// propagator hands them to the evaluator, so a wave only moves data.
  /// Never compiled for aggregate edges.
  std::array<objectlog::KernelPlan, 2> kernel_plans;

  /// e.g. "Δcnd/Δ+quantity" or "Δcnd/Δ-supplies [negated occurrence]".
  std::string Name(const Catalog& catalog) const;
};

/// Per-node attribution accumulated across waves: which node a wave spends
/// its work on, and in which polarity. Maintained by the propagator only
/// while instrumentation is compiled in and enabled; introspection surfaces
/// (SHOW NETWORK, ToDot) render it next to the topology.
///
/// The tallies are relaxed atomics because parallel propagation attributes
/// a node from whichever worker processed it; each counter is independently
/// exact, cross-counter consistency of a concurrent read is not promised
/// (same contract as the obs registry). Copying (for NetworkNode's map
/// residency during Build) transfers a relaxed snapshot.
struct NodeStats {
  std::atomic<uint64_t> invocations{0};  ///< waves that processed the node
  std::atomic<uint64_t> tuples_consumed{0};  ///< Δ tuples read by its diffs
  std::atomic<uint64_t> plus_produced{0};    ///< Δ+ tuples contributed
  std::atomic<uint64_t> minus_produced{0};   ///< Δ− tuples contributed
  std::atomic<uint64_t> cumulative_ns{0};  ///< wall time spent on the node

  NodeStats() = default;
  NodeStats(const NodeStats& other) { *this = other; }
  NodeStats& operator=(const NodeStats& other) {
    invocations = other.invocations.load(std::memory_order_relaxed);
    tuples_consumed = other.tuples_consumed.load(std::memory_order_relaxed);
    plus_produced = other.plus_produced.load(std::memory_order_relaxed);
    minus_produced = other.minus_produced.load(std::memory_order_relaxed);
    cumulative_ns = other.cumulative_ns.load(std::memory_order_relaxed);
    return *this;
  }

  void Add(uint64_t consumed, uint64_t plus, uint64_t minus, uint64_t ns) {
    invocations.fetch_add(1, std::memory_order_relaxed);
    tuples_consumed.fetch_add(consumed, std::memory_order_relaxed);
    plus_produced.fetch_add(plus, std::memory_order_relaxed);
    minus_produced.fetch_add(minus, std::memory_order_relaxed);
    cumulative_ns.fetch_add(ns, std::memory_order_relaxed);
  }

  void Reset() {
    invocations.store(0, std::memory_order_relaxed);
    tuples_consumed.store(0, std::memory_order_relaxed);
    plus_produced.store(0, std::memory_order_relaxed);
    minus_produced.store(0, std::memory_order_relaxed);
    cumulative_ns.store(0, std::memory_order_relaxed);
  }
};

/// A node of the propagation network: a base relation (leaf) or a derived
/// relation (the monitored condition itself, or an intermediate shared node
/// under the §7.1 node-sharing policy).
struct NetworkNode {
  RelationId relation = kInvalidRelationId;
  bool is_base = false;
  /// 0 for base relations; 1 + max(children) otherwise (longest path), so a
  /// node is processed only after all its influents' Δ-sets are complete —
  /// the breadth-first bottom-up ordering the calculus requires (§4, §5).
  int level = 0;
  /// Clauses used for this node's differentials (expanded per policy).
  std::vector<objectlog::Clause> clauses;
  /// Aggregate views (§8 extension) have a definition instead of clauses.
  const objectlog::AggregateDef* aggregate = nullptr;
  /// Whether insertions / deletions into this node must be computed.
  bool needs_plus = false;
  bool needs_minus = false;
  /// Indexes into PropagationNetwork::differentials() whose target is this
  /// node, in (clause, literal) order.
  std::vector<size_t> in_edges;
  /// Wave-front schedule (§5): the derived non-root children whose Δ-sets
  /// this node releases once merged — the children it is the last parent
  /// of in levels() order. Every node of every level is merged on each
  /// non-empty wave, in that fixed order, so the list is exact. Base and
  /// root Δ-sets are never released.
  std::vector<RelationId> releases;
  /// Apply the §7.2 strict filter to this node's Δ+: the `strict` flag of
  /// the first RootSpec naming it; false for non-root nodes.
  bool strict_root = false;
  /// Cross-wave attribution; mutable because the propagator works on a
  /// const network (the topology IS immutable, the tallies are not).
  mutable NodeStats stats;
  /// Per-literal clause profiles for this node's differentials, folded in
  /// by the propagator's serial merge whenever a profiler is attached
  /// (PropagationOptions::profiler); surfaced by `show network`. Same
  /// mutability rationale as `stats`. Only the merge thread writes it.
  mutable obs::Profile profile;
};

/// Per-root monitoring requirements.
struct RootSpec {
  RelationId relation = kInvalidRelationId;
  /// Propagate deletions up to this root (needed for strict semantics, for
  /// multi-round rule processing, and whenever the consumer must see net
  /// negative changes). With false and no negation below, the network is
  /// insertions-only — the paper's common case (§4.4).
  bool needs_minus = true;
  /// Apply the §7.2 strict filter to the root's Δ+ (drop tuples already
  /// derivable in the old state).
  bool strict = true;
};

/// Options controlling network construction.
struct BuildOptions {
  /// Derived relations NOT to expand: they become intermediate nodes shared
  /// between conditions (paper §7.1 node sharing). Everything else is
  /// flattened into its parents (the paper's default "full expansion").
  std::unordered_set<RelationId> keep;
};

/// The propagation network (paper fig. 2): the dependency network of the
/// monitored conditions augmented with the generated partial differentials
/// on its edges. Immutable once built.
class PropagationNetwork {
 public:
  /// Builds the network for the given condition relations. `roots` entries
  /// must be derived relations with clauses in `registry`.
  static Result<PropagationNetwork> Build(const std::vector<RootSpec>& roots,
                                          const objectlog::DerivedRegistry& registry,
                                          const Catalog& catalog,
                                          const BuildOptions& options = {});

  const std::vector<PartialDifferential>& differentials() const {
    return differentials_;
  }
  const std::unordered_map<RelationId, NetworkNode>& nodes() const {
    return nodes_;
  }
  const NetworkNode* node(RelationId rel) const {
    auto it = nodes_.find(rel);
    return it == nodes_.end() ? nullptr : &it->second;
  }
  const std::vector<RootSpec>& roots() const { return roots_; }

  /// Node ids grouped by level; levels_[0] are the base influents.
  const std::vector<std::vector<RelationId>>& levels() const { return levels_; }

  /// The base relations the monitored conditions depend on — exactly the
  /// relations the database must accumulate Δ-sets for.
  std::vector<RelationId> BaseInfluents() const;

  /// Human-readable dump (nodes by level, then differentials).
  std::string ToString(const Catalog& catalog) const;

  /// Graphviz dot export of the network, each node annotated with its
  /// NodeStats attribution (invocations, Δ+/Δ− produced, consumed tuples,
  /// cumulative time) and each differential drawn as an edge influent →
  /// target. With `root` set, restricts to the subgraph feeding that node
  /// (the nodes from which it is reachable) — the `show network <rule>;`
  /// view.
  std::string ToDot(const Catalog& catalog,
                    RelationId root = kInvalidRelationId) const;

  /// Zeroes every node's attribution tallies (topology untouched).
  void ResetStats() const;

  /// Recompiles every differential's kernel plans when `catalog`'s
  /// StatsStore has moved since they were compiled — observed
  /// selectivities steer the literal order, so new stats must reach the
  /// next wave. One version check otherwise. Not safe concurrently with a
  /// wave over this network.
  void RefreshKernelPlans(const objectlog::DerivedRegistry& registry,
                          const Catalog& catalog);

 private:
  PropagationNetwork() = default;

  void CompileKernelPlans(const objectlog::DerivedRegistry& registry,
                          const Catalog& catalog);

  std::vector<RootSpec> roots_;
  std::vector<PartialDifferential> differentials_;
  std::unordered_map<RelationId, NetworkNode> nodes_;
  std::vector<std::vector<RelationId>> levels_;
  /// StatsStore version the kernel plans were compiled at.
  uint64_t kernel_plans_version_ = 0;
};

}  // namespace deltamon::core

#endif  // DELTAMON_CORE_NETWORK_H_
