#ifndef DELTAMON_OBJECTLOG_REGISTRY_H_
#define DELTAMON_OBJECTLOG_REGISTRY_H_

#include <cstdint>
#include <functional>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "objectlog/ast.h"

namespace deltamon::objectlog {

/// A group-by aggregate view (the paper's §8 "extending the calculus to
/// handle aggregates" future work, implemented as an extension): the
/// relation's extent is
///
///   { (g1..gk, F(value over matching source tuples)) }
///
/// for every group key present in the source. COUNT with no group columns
/// yields a single (0) tuple on an empty source; the other functions yield
/// nothing for empty groups.
///
/// Aggregate views are never expanded; in a propagation network they form
/// an intermediate node whose delta is computed per *affected group*: the
/// group keys mentioned in the source Δ-set are re-aggregated in the old
/// and new states and diffed — incremental in the number of touched
/// groups, not the size of the source.
struct AggregateDef {
  enum class Func { kCount, kSum, kMin, kMax };

  RelationId source = kInvalidRelationId;
  /// Source columns forming the group key (may be empty: global
  /// aggregate). They become the leading result columns.
  std::vector<size_t> group_by;
  /// Source column being aggregated (ignored for kCount).
  size_t value_column = 0;
  Func func = Func::kCount;
};

const char* AggregateFuncName(AggregateDef::Func func);

/// Implementation of a foreign function (paper §3, [15]): produces the
/// current extent, restricted by the bound positions of `pattern` where
/// convenient (the evaluator re-filters, so ignoring the pattern is
/// correct, just slower). `emit` returning false stops the scan.
/// Implementations must be deterministic between the change notifications
/// the user injects (Database::InjectForeignDelta) — the monitoring
/// calculus reconstructs old states by rolling the injected Δ-sets back
/// over whatever the implementation currently returns.
using ForeignImpl = std::function<Status(
    const ScanPattern& pattern, const std::function<bool(const Tuple&)>& emit)>;

/// Registry of derived-relation definitions (relational views / derived
/// functions). A derived relation is a list of clauses; several clauses
/// form a disjunction (DNF).
///
/// Also implements *expansion* (flattening): the AMOSQL compiler "expands
/// as many derived relations as possible to have more degrees of freedom
/// for optimizations" (paper §4.3), which yields the flat propagation
/// network of fig. 2. Expansion can be suppressed per relation to produce
/// the bushy, node-sharing networks of §7.1.
class DerivedRegistry {
 public:
  DerivedRegistry() = default;
  DerivedRegistry(const DerivedRegistry&) = delete;
  DerivedRegistry& operator=(const DerivedRegistry&) = delete;

  /// Appends a clause to `rel`'s definition (validated against `catalog`).
  Status Define(RelationId rel, Clause clause, const Catalog& catalog);

  /// Defines `rel` as an aggregate view (mutually exclusive with clauses).
  Status DefineAggregate(RelationId rel, AggregateDef def,
                         const Catalog& catalog);

  /// Null if `rel` is not an aggregate view.
  const AggregateDef* GetAggregate(RelationId rel) const;

  /// Registers the implementation of a foreign function created with
  /// Catalog::CreateForeignFunction.
  Status RegisterForeign(RelationId rel, ForeignImpl impl,
                         const Catalog& catalog);

  /// Null if `rel` has no foreign implementation.
  const ForeignImpl* GetForeign(RelationId rel) const;

  /// Whether `rel` participates in a definition cycle (through clauses or
  /// aggregate sources), i.e. is in its own Reach: a lookup, because the
  /// registry computes reach when a definition changes. Recursive relations
  /// are evaluated by fixpoint iteration and are never expanded (paper §5
  /// footnote: the algorithm extends to linear recursion "by revisiting
  /// nodes below and using fixed point techniques").
  bool IsRecursive(RelationId rel) const;

  /// `rel`'s reach: every relation reachable through the relation literals
  /// of its clauses, negated or not, and through an aggregate's source,
  /// sorted ascending. Empty for stored, foreign and undefined relations.
  /// Define and DefineAggregate keep it current; no API removes a
  /// definition, so a reach only grows. They run under the exclusive engine
  /// gate (or before any wave), so concurrent readers see a fixed graph.
  const std::vector<RelationId>& Reach(RelationId rel) const;

  /// Moves whenever Define or DefineAggregate adds a definition, so a
  /// holder of anything derived from the definitions (the rule manager's
  /// influents and network) can tell that it is stale.
  uint64_t version() const { return version_; }

  bool IsDefined(RelationId rel) const { return clauses_.contains(rel); }
  /// Null if `rel` has no clauses.
  const std::vector<Clause>* GetClauses(RelationId rel) const;

  /// Returns `rel`'s clauses with every positive literal over a derived
  /// relation NOT in `keep` recursively replaced by that relation's body
  /// (clause product for disjunctions). Negated derived literals are never
  /// expanded (negating a conjunction is not expressible in clause form),
  /// and neither are recursive relations (they must stay as network nodes
  /// to be iterated to a fixpoint); both stay as sub-relation references.
  Result<std::vector<Clause>> Expand(
      RelationId rel, const std::unordered_set<RelationId>& keep) const;

  /// Distinct relations referenced by the bodies of `clauses`.
  static std::vector<RelationId> DirectDependencies(
      const std::vector<Clause>& clauses);

 private:
  /// Adds the edges `rel` -> `targets` to the definition graph: what they
  /// reach joins the reach of `rel` and of every relation that reaches it.
  void AddEdges(RelationId rel, const std::vector<RelationId>& targets);
  Result<std::vector<Clause>> ExpandClause(
      const Clause& clause, const std::unordered_set<RelationId>& keep) const;

  std::unordered_map<RelationId, std::vector<Clause>> clauses_;
  std::unordered_map<RelationId, AggregateDef> aggregates_;
  std::unordered_map<RelationId, ForeignImpl> foreign_;
  /// Keyed by every relation with a definition.
  std::unordered_map<RelationId, std::vector<RelationId>> reach_;
  uint64_t version_ = 0;
};

}  // namespace deltamon::objectlog

#endif  // DELTAMON_OBJECTLOG_REGISTRY_H_
