#ifndef DELTAMON_DELTA_DELTA_SET_H_
#define DELTAMON_DELTA_DELTA_SET_H_

#include <iosfwd>
#include <string>

#include "common/status.h"
#include "common/tuple.h"

namespace deltamon {

/// A Δ-set <Δ+S, Δ−S> for some monitored set S (paper §4.1, §4.5): the
/// disjoint pair of tuples added to and removed from S over a period of
/// time (a transaction, or one wave of the propagation algorithm).
///
/// Invariant: plus() and minus() are disjoint. The mutating operations
/// below all preserve disjointness, implementing the "logical event"
/// semantics of the paper: physical insert/delete events that cancel out
/// leave no trace (§4.1 min_stock example).
class DeltaSet {
 public:
  DeltaSet() = default;
  DeltaSet(TupleSet plus, TupleSet minus)
      : plus_(std::move(plus)), minus_(std::move(minus)) {}

  const TupleSet& plus() const { return plus_; }
  const TupleSet& minus() const { return minus_; }

  bool empty() const { return plus_.empty() && minus_.empty(); }
  size_t size() const { return plus_.size() + minus_.size(); }
  void Clear() {
    plus_.clear();
    minus_.clear();
  }

  /// Folds one physical insertion event into the Δ-set: cancels a pending
  /// deletion of `t` if present, otherwise records the insertion. This is
  /// ∪Δ with the singleton <{t},{}> applied in event order.
  void ApplyInsert(const Tuple& t);

  /// Folds one physical deletion event (the dual of ApplyInsert).
  void ApplyDelete(const Tuple& t);

  /// In-place delta-union `*this = *this ∪Δ other` (paper §4.5):
  ///   <(Δ+1 − Δ−2) ∪ (Δ+2 − Δ−1), (Δ−1 − Δ+2) ∪ (Δ−2 − Δ+1)>
  /// ∪Δ is not commutative under set semantics (§7.2), so callers must
  /// accumulate partial differentials in the order the changes occurred.
  void DeltaUnion(const DeltaSet& other);

  /// Drops from Δ+ every tuple already true in the old state, and from Δ−
  /// every tuple still true in the new state (§7.2 strict-semantics
  /// filters). `derivable_old` / `derivable_new` are membership point
  /// queries against the monitored relation, returning bool or
  /// Result<bool>; the first failed query's error is returned, with the
  /// Δ-set partly filtered. Either may be null to skip that side's filter
  /// (nervous semantics skips the positive filter; the negative filter must
  /// never be skipped when deletions are propagated, or rules under-react).
  template <typename OldPred, typename NewPred>
  Status FilterStrict(const OldPred* derivable_old,
                      const NewPred* derivable_new) {
    DELTAMON_RETURN_IF_ERROR(EraseIf(plus_, derivable_old));
    return EraseIf(minus_, derivable_new);
  }

  bool operator==(const DeltaSet& other) const {
    return plus_ == other.plus_ && minus_ == other.minus_;
  }

  /// "<{...}, {...}>".
  std::string ToString() const;

 private:
  template <typename Pred>
  static Status EraseIf(TupleSet& side, const Pred* pred) {
    if (pred == nullptr) return Status::OK();
    for (auto it = side.begin(); it != side.end();) {
      Result<bool> drop = (*pred)(*it);
      if (!drop.ok()) return drop.status();
      it = *drop ? side.erase(it) : std::next(it);
    }
    return Status::OK();
  }

  TupleSet plus_;
  TupleSet minus_;
};

/// Pure delta-union of two Δ-sets (paper §4.1): the net logical change of
/// applying `a` then `b`.
DeltaSet DeltaUnion(const DeltaSet& a, const DeltaSet& b);

/// Logical rollback (paper §4, fig. 3): reconstructs the old state of a set
/// from its new state and its accumulated Δ-set,
///   S_old = (S_new ∪ Δ−S) − Δ+S.
TupleSet RollbackToOldState(const TupleSet& new_state, const DeltaSet& delta);

/// The forward direction: S_new = (S_old ∪ Δ+S) − Δ−S. Used by tests and
/// by the naive monitor to advance its materialized snapshot.
TupleSet ApplyDelta(const TupleSet& old_state, const DeltaSet& delta);

/// The net Δ-set between two explicit states: <new − old, old − new>
/// (paper §4.1: Δ+B = B − B_old, Δ−B = B_old − B). This is what the naive
/// monitor computes by recomputation, and what the incremental propagation
/// must reproduce.
DeltaSet DiffStates(const TupleSet& old_state, const TupleSet& new_state);

/// Streams d.ToString() (also makes gtest failures readable).
std::ostream& operator<<(std::ostream& os, const DeltaSet& d);

}  // namespace deltamon

#endif  // DELTAMON_DELTA_DELTA_SET_H_
