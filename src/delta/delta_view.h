#ifndef DELTAMON_DELTA_DELTA_VIEW_H_
#define DELTAMON_DELTA_DELTA_VIEW_H_

#include <type_traits>

#include "common/tuple.h"
#include "delta/delta_set.h"

namespace deltamon {

/// A set S seen through a Δ-set without materializing it:
///   view = (S − hide) ∪ add.
/// The same rule reads both states the system needs from one stored set:
///  - Rollback(Δ) is the OLD state of a set whose NEW state is S (paper
///    §4.4, fig. 3: S_old = (S_new ∪ Δ−) − Δ+): hide Δ+, add Δ−.
///  - Forward(Δ) is S with Δ applied — a transaction's view of the store
///    through its write overlay (DESIGN §11: (S − Δ−) ∪ Δ+): hide Δ−,
///    add Δ+.
/// S is supplied per read (a TupleSet, an indexed stored relation, a
/// foreign implementation), so every such read meets its Δ-set here. A
/// null or empty Δ-set yields the identity view, which reads S with no
/// extra probe per row. The view borrows the Δ-set; build it per read.
class DeltaView {
 public:
  /// The identity view: reads S unchanged.
  DeltaView() = default;

  static DeltaView Rollback(const DeltaSet* delta) {
    if (delta == nullptr || delta->empty()) return DeltaView();
    return DeltaView(delta->plus(), delta->minus());
  }

  static DeltaView Forward(const DeltaSet* delta) {
    if (delta == nullptr || delta->empty()) return DeltaView();
    return DeltaView(delta->minus(), delta->plus());
  }

  /// t ∈ view, where `in_base(t)` answers t ∈ S.
  template <typename InBase>
  bool Contains(const Tuple& t, InBase&& in_base) const {
    if (hide_ == nullptr) return in_base(t);
    if (add_->contains(t)) return true;
    return !hide_->contains(t) && in_base(t);
  }

  /// Streams the view's tuples matching `pattern` into `fn` (returning
  /// false stops the scan): S's tuples, which `scan_base(visit)` feeds to
  /// `visit`, minus the hidden ones, then the added tuples that match.
  /// `scan_base` must feed only tuples of S that match `pattern` and stop
  /// once `visit` returns false. It may return void or a Status; a failed
  /// Status is returned before any added tuple is emitted. `visit`
  /// captures a single pointer, so a std::function built from it stays in
  /// the small buffer. A tuple in both S and `add` is emitted twice; the
  /// Δ-set invariants (Δ− disjoint from S_new; a transaction's Δ+ disjoint
  /// from its snapshot) rule that out.
  template <typename ScanBase, typename Fn>
  auto Scan(const ScanPattern& pattern, ScanBase&& scan_base, Fn&& fn) const {
    if (hide_ == nullptr) {
      return scan_base([&fn](const Tuple& t) { return fn(t); });
    }
    struct Cursor {
      const TupleSet* hide;
      std::remove_reference_t<Fn>* fn;
      bool stopped;
    };
    Cursor cursor{hide_, &fn, false};
    auto visit = [&cursor](const Tuple& t) {
      if (cursor.hide->contains(t)) return true;
      cursor.stopped = !(*cursor.fn)(t);
      return !cursor.stopped;
    };
    auto emit_added = [&] {
      if (cursor.stopped) return;
      for (const Tuple& t : *add_) {
        if (TupleMatchesPattern(t, pattern) && !fn(t)) return;
      }
    };
    if constexpr (std::is_void_v<decltype(scan_base(visit))>) {
      scan_base(visit);
      emit_added();
    } else {
      auto status = scan_base(visit);
      if (status.ok()) emit_added();
      return status;
    }
  }

 private:
  DeltaView(const TupleSet& hide, const TupleSet& add)
      : hide_(&hide), add_(&add) {}

  /// Both null for the identity view, both set otherwise.
  const TupleSet* hide_ = nullptr;
  const TupleSet* add_ = nullptr;
};

}  // namespace deltamon

#endif  // DELTAMON_DELTA_DELTA_VIEW_H_
