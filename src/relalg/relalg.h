#ifndef DELTAMON_RELALG_RELALG_H_
#define DELTAMON_RELALG_RELALG_H_

#include <functional>
#include <utility>
#include <vector>

#include "common/tuple.h"
#include "delta/delta_set.h"
#include "delta/delta_view.h"

namespace deltamon::relalg {

/// Selection predicate over a tuple.
using Predicate = std::function<bool(const Tuple&)>;

/// Join condition: pairs of (left column, right column) that must be equal.
using JoinColumns = std::vector<std::pair<size_t, size_t>>;

/// --- Plain set-oriented relational operators (the naive path) -----------

TupleSet Select(const TupleSet& q, const Predicate& cond);
TupleSet Project(const TupleSet& q, const std::vector<size_t>& cols);
TupleSet Union(const TupleSet& q, const TupleSet& r);
TupleSet Difference(const TupleSet& q, const TupleSet& r);
TupleSet Intersect(const TupleSet& q, const TupleSet& r);
/// Cartesian product; each result tuple is the concatenation q ++ r.
TupleSet Product(const TupleSet& q, const TupleSet& r);
/// Equi-join on `on`; result tuples are concatenations q ++ r (join columns
/// appear on both sides, as in the product form of the join).
TupleSet Join(const TupleSet& q, const TupleSet& r, const JoinColumns& on);

/// A lazy view of a relation's OLD state over its new state and Δ-set
/// (paper fig. 3: S_old = (S_new ∪ Δ−S) − Δ+S) — membership tests and
/// iteration without materializing a copy, answered by DeltaView::Rollback.
/// This is what lets the negative partial-differential columns run in time
/// proportional to the Δ-sets.
class OldStateView {
 public:
  OldStateView(const TupleSet& new_state, const DeltaSet& delta)
      : new_state_(new_state), delta_(delta) {}

  bool contains(const Tuple& t) const {
    return DeltaView::Rollback(&delta_).Contains(
        t, [this](const Tuple& u) { return new_state_.contains(u); });
  }

  size_t size() const {
    return new_state_.size() + delta_.minus().size() - delta_.plus().size();
  }

  /// Iterates the old state: new tuples not in Δ+, then Δ−. `fn` returns
  /// false to stop.
  template <typename Fn>
  void ForEach(Fn fn) const {
    DeltaView::Rollback(&delta_).Scan(
        ScanPattern{},
        [this](const auto& visit) {
          for (const Tuple& t : new_state_) {
            if (!visit(t)) return;
          }
        },
        fn);
  }

 private:
  const TupleSet& new_state_;
  const DeltaSet& delta_;
};

/// --- Partial differentials of the operators (paper fig. 4) --------------
///
/// Each Partials* function returns the four partial-differential columns of
/// fig. 4, computed verbatim from the table:
///
///   P        | ΔP/Δ+Q       | ΔP/Δ+R*     | ΔP/Δ−Q        | ΔP/Δ−R*
///   σ_cond Q | σ_cond Δ+Q   |             | σ_cond Δ−Q    |
///   π_attr Q | π_attr Δ+Q   |             | π_attr Δ−Q    |
///   Q ∪ R    | Δ+Q − R_old  | Δ+R − Q_old | Δ−Q − R       | Δ−R − Q
///   Q − R    | Δ+Q − R      | Q ∩ Δ−R     | Δ−Q − R_old   | Q_old ∩ Δ+R
///   Q × R    | Δ+Q × R      | Q × Δ+R     | Δ−Q × R_old   | Q_old × Δ−R
///   Q ⋈ R    | Δ+Q ⋈ R      | Q ⋈ Δ+R     | Δ−Q ⋈ R_old   | Q_old ⋈ Δ−R
///   Q ∩ R    | Δ+Q ∩ R      | Q ∩ Δ+R     | Δ−Q ∩ R_old   | Q_old ∩ Δ−R
///
/// (*for Q − R the "from R" columns carry the opposite delta sign, exactly
/// as printed in the paper.)
///
/// Positive columns evaluate against the NEW input states; negative columns
/// evaluate against OLD states reconstructed by logical rollback — no
/// materialized old state is required (paper §4, fig. 3). Unary operators
/// leave the *_from_r columns empty.
struct PartialDifferentials {
  TupleSet plus_from_q;   ///< positive changes to P caused by ΔQ
  TupleSet plus_from_r;   ///< positive changes to P caused by ΔR
  TupleSet minus_from_q;  ///< negative changes to P caused by ΔQ
  TupleSet minus_from_r;  ///< negative changes to P caused by ΔR

  /// Raw combination <plus_from_q ∪ plus_from_r, minus_from_q ∪
  /// minus_from_r>. May over-approximate (§7.2); see the Delta* functions
  /// for the corrected net change.
  DeltaSet Combined() const;
};

PartialDifferentials PartialsSelect(const TupleSet& q_new, const DeltaSet& dq,
                                    const Predicate& cond);
PartialDifferentials PartialsProject(const TupleSet& q_new, const DeltaSet& dq,
                                     const std::vector<size_t>& cols);
PartialDifferentials PartialsUnion(const TupleSet& q_new, const TupleSet& r_new,
                                   const DeltaSet& dq, const DeltaSet& dr);
PartialDifferentials PartialsDifference(const TupleSet& q_new,
                                        const TupleSet& r_new,
                                        const DeltaSet& dq, const DeltaSet& dr);
PartialDifferentials PartialsProduct(const TupleSet& q_new,
                                     const TupleSet& r_new, const DeltaSet& dq,
                                     const DeltaSet& dr);
PartialDifferentials PartialsJoin(const TupleSet& q_new, const TupleSet& r_new,
                                  const JoinColumns& on, const DeltaSet& dq,
                                  const DeltaSet& dr);
PartialDifferentials PartialsIntersect(const TupleSet& q_new,
                                       const TupleSet& r_new,
                                       const DeltaSet& dq, const DeltaSet& dr);

/// --- Net operator deltas -------------------------------------------------
///
/// The exact net change ΔP = <P_new − P_old, P_old − P_new> computed
/// incrementally: combine the fig. 4 partials, then apply the §7.2
/// correction (drop insertions already true in the old state and deletions
/// still true in the new state). Equal to DiffStates(P_old, P_new) — the
/// property tests assert this for randomized inputs.
DeltaSet DeltaSelect(const TupleSet& q_new, const DeltaSet& dq,
                     const Predicate& cond);
DeltaSet DeltaProject(const TupleSet& q_new, const DeltaSet& dq,
                      const std::vector<size_t>& cols);
DeltaSet DeltaUnionOp(const TupleSet& q_new, const TupleSet& r_new,
                      const DeltaSet& dq, const DeltaSet& dr);
DeltaSet DeltaDifference(const TupleSet& q_new, const TupleSet& r_new,
                         const DeltaSet& dq, const DeltaSet& dr);
DeltaSet DeltaProduct(const TupleSet& q_new, const TupleSet& r_new,
                      const DeltaSet& dq, const DeltaSet& dr);
DeltaSet DeltaJoin(const TupleSet& q_new, const TupleSet& r_new,
                   const JoinColumns& on, const DeltaSet& dq,
                   const DeltaSet& dr);
DeltaSet DeltaIntersect(const TupleSet& q_new, const TupleSet& r_new,
                        const DeltaSet& dq, const DeltaSet& dr);

}  // namespace deltamon::relalg

#endif  // DELTAMON_RELALG_RELALG_H_
