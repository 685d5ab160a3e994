#include "delta/delta_set.h"

#include <algorithm>
#include <random>
#include <vector>

#include <gtest/gtest.h>

#include "delta/delta_view.h"

namespace deltamon {
namespace {

Tuple T(int64_t a) { return Tuple{Value(a)}; }
Tuple T(int64_t a, int64_t b) { return Tuple{Value(a), Value(b)}; }

TEST(DeltaSetTest, StartsEmpty) {
  DeltaSet d;
  EXPECT_TRUE(d.empty());
  EXPECT_EQ(d.size(), 0u);
}

TEST(DeltaSetTest, InsertThenDeleteCancels) {
  DeltaSet d;
  d.ApplyInsert(T(1));
  EXPECT_EQ(d.plus().size(), 1u);
  d.ApplyDelete(T(1));
  EXPECT_TRUE(d.empty());
}

TEST(DeltaSetTest, DeleteThenInsertCancels) {
  DeltaSet d;
  d.ApplyDelete(T(1));
  EXPECT_EQ(d.minus().size(), 1u);
  d.ApplyInsert(T(1));
  EXPECT_TRUE(d.empty());
}

TEST(DeltaSetTest, DuplicateInsertIsIdempotent) {
  DeltaSet d;
  d.ApplyInsert(T(1));
  d.ApplyInsert(T(1));
  EXPECT_EQ(d.plus().size(), 1u);
  EXPECT_TRUE(d.minus().empty());
}

// The paper's §4.1 min_stock example: two `set` updates that restore the
// original value produce the physical events
//   -(min_stock,:item1,100), +(min_stock,:item1,150),
//   -(min_stock,:item1,150), +(min_stock,:item1,100)
// and the Δ-set must end empty ("there is no net effect of the updates").
TEST(DeltaSetTest, PaperSection41MinStockNoNetEffect) {
  DeltaSet d;
  d.ApplyDelete(T(1, 100));
  EXPECT_EQ(d, DeltaSet({}, {T(1, 100)}));
  d.ApplyInsert(T(1, 150));
  EXPECT_EQ(d, DeltaSet({T(1, 150)}, {T(1, 100)}));
  d.ApplyDelete(T(1, 150));
  EXPECT_EQ(d, DeltaSet({}, {T(1, 100)}));
  d.ApplyInsert(T(1, 100));
  EXPECT_TRUE(d.empty());
}

TEST(DeltaUnionTest, DisjointSidesStayDisjoint) {
  DeltaSet a({T(1)}, {T(2)});
  DeltaSet b({T(3)}, {T(4)});
  DeltaSet u = DeltaUnion(a, b);
  EXPECT_EQ(u, DeltaSet({T(1), T(3)}, {T(2), T(4)}));
}

TEST(DeltaUnionTest, InsertionCancelledByLaterDeletion) {
  DeltaSet a({T(1)}, {});
  DeltaSet b({}, {T(1)});
  EXPECT_TRUE(DeltaUnion(a, b).empty());
}

TEST(DeltaUnionTest, DeletionCancelledByLaterInsertion) {
  DeltaSet a({}, {T(1)});
  DeltaSet b({T(1)}, {});
  EXPECT_TRUE(DeltaUnion(a, b).empty());
}

TEST(DeltaUnionTest, ResultSidesAreDisjoint) {
  DeltaSet a({T(1), T(2)}, {T(3)});
  DeltaSet b({T(3)}, {T(2)});
  DeltaSet u = DeltaUnion(a, b);
  for (const Tuple& t : u.plus()) {
    EXPECT_FALSE(u.minus().contains(t)) << t.ToString();
  }
}

TEST(DeltaUnionTest, MatchesEventFolding) {
  // Folding events one at a time equals ∪Δ of the per-event singletons.
  std::vector<std::pair<bool, Tuple>> events = {
      {true, T(1)}, {false, T(2)}, {true, T(2)},  {false, T(1)},
      {true, T(3)}, {true, T(1)},  {false, T(3)},
  };
  DeltaSet folded;
  DeltaSet unioned;
  for (const auto& [is_insert, t] : events) {
    if (is_insert) {
      folded.ApplyInsert(t);
      unioned.DeltaUnion(DeltaSet({t}, {}));
    } else {
      folded.ApplyDelete(t);
      unioned.DeltaUnion(DeltaSet({}, {t}));
    }
  }
  EXPECT_EQ(folded, unioned);
}

TEST(DeltaUnionTest, InPlaceMatchesFree) {
  DeltaSet a({T(1)}, {T(2)});
  DeltaSet b({T(2)}, {T(1)});
  DeltaSet expected = DeltaUnion(a, b);
  a.DeltaUnion(b);
  EXPECT_EQ(a, expected);
}

TEST(RollbackTest, PaperFormulaOldState) {
  // S_old = (S_new ∪ Δ−S) − Δ+S (paper §4).
  TupleSet s_new = {T(1), T(2), T(4)};
  DeltaSet delta({T(4)}, {T(3)});  // added 4, removed 3
  TupleSet s_old = RollbackToOldState(s_new, delta);
  EXPECT_EQ(s_old, (TupleSet{T(1), T(2), T(3)}));
}

TEST(RollbackTest, ApplyDeltaIsForwardDirection) {
  TupleSet s_old = {T(1), T(2), T(3)};
  DeltaSet delta({T(4)}, {T(3)});
  EXPECT_EQ(ApplyDelta(s_old, delta), (TupleSet{T(1), T(2), T(4)}));
}

TEST(DiffStatesTest, ComputesNetChange) {
  TupleSet old_state = {T(1), T(2)};
  TupleSet new_state = {T(2), T(3)};
  DeltaSet d = DiffStates(old_state, new_state);
  EXPECT_EQ(d, DeltaSet({T(3)}, {T(1)}));
}

TEST(DeltaSetStrictFilterTest, RemovesAlreadyTrueAndStillTrue) {
  DeltaSet d({T(1), T(2)}, {T(3), T(4)});
  auto in_old = [](const Tuple& t) { return t == T(1); };
  auto in_new = [](const Tuple& t) { return t == T(3); };
  d.FilterStrict(&in_old, &in_new);
  EXPECT_EQ(d, DeltaSet({T(2)}, {T(4)}));
}

TEST(DeltaSetStrictFilterTest, NullPredicatesSkipSides) {
  DeltaSet d({T(1)}, {T(3)});
  auto all = [](const Tuple&) { return true; };
  d.FilterStrict<decltype(all), decltype(all)>(nullptr, &all);
  EXPECT_EQ(d, DeltaSet({T(1)}, {}));
}

// --- Property tests over random event sequences --------------------------

class DeltaPropertyTest : public ::testing::TestWithParam<uint32_t> {};

TEST_P(DeltaPropertyTest, FoldedDeltaEqualsStateDiff) {
  std::mt19937 rng(GetParam());
  std::uniform_int_distribution<int64_t> key(0, 19);
  TupleSet state = {T(0), T(1), T(2), T(3), T(4)};
  TupleSet original = state;
  DeltaSet delta;
  for (int i = 0; i < 200; ++i) {
    Tuple t = T(key(rng));
    if (rng() % 2 == 0) {
      if (state.insert(t).second) delta.ApplyInsert(t);
    } else {
      if (state.erase(t) > 0) delta.ApplyDelete(t);
    }
  }
  EXPECT_EQ(delta, DiffStates(original, state));
  // Rollback reconstructs the original state from the new one.
  EXPECT_EQ(RollbackToOldState(state, delta), original);
  // Forward application reconstructs the new state from the old one.
  EXPECT_EQ(ApplyDelta(original, delta), state);
  // Plus/minus stay disjoint.
  for (const Tuple& t : delta.plus()) {
    EXPECT_FALSE(delta.minus().contains(t));
  }
}

TEST_P(DeltaPropertyTest, DeltaUnionComposesSequentialDiffs) {
  std::mt19937 rng(GetParam() ^ 0xBEEF);
  std::uniform_int_distribution<int64_t> key(0, 14);
  TupleSet s0 = {T(0), T(2), T(4), T(6)};
  auto mutate = [&rng, &key](TupleSet state, DeltaSet* delta) {
    for (int i = 0; i < 60; ++i) {
      Tuple t = T(key(rng));
      if (rng() % 2 == 0) {
        if (state.insert(t).second) delta->ApplyInsert(t);
      } else {
        if (state.erase(t) > 0) delta->ApplyDelete(t);
      }
    }
    return state;
  };
  DeltaSet d1, d2;
  TupleSet s1 = mutate(s0, &d1);
  TupleSet s2 = mutate(s1, &d2);
  // ∪Δ of consecutive deltas equals the end-to-end diff.
  EXPECT_EQ(DeltaUnion(d1, d2), DiffStates(s0, s2));
}

TEST_P(DeltaPropertyTest, DeltaViewsReadTheMaterializedStates) {
  std::mt19937 rng(GetParam() ^ 0x5EED);
  std::uniform_int_distribution<int64_t> key(0, 5);
  TupleSet old_state;
  for (int i = 0; i < 15; ++i) old_state.insert(T(key(rng), key(rng)));
  TupleSet new_state = old_state;
  DeltaSet delta;
  for (int i = 0; i < 20; ++i) {
    Tuple t = T(key(rng), key(rng));
    if (rng() % 2 == 0) {
      if (new_state.insert(t).second) delta.ApplyInsert(t);
    } else {
      if (new_state.erase(t) > 0) delta.ApplyDelete(t);
    }
  }
  auto matching = [](const TupleSet& s, const ScanPattern& pattern) {
    TupleSet out;
    for (const Tuple& t : s) {
      if (TupleMatchesPattern(t, pattern)) out.insert(t);
    }
    return out;
  };
  // The view over `base` must read exactly `expected`, for every pattern.
  auto check = [&](const DeltaView& view, const TupleSet& base,
                   const TupleSet& expected) {
    for (int i = 0; i < 8; ++i) {
      ScanPattern pattern(2);
      for (auto& p : pattern) {
        if (rng() % 2 == 0) p = Value(key(rng));
      }
      auto scan_base = [&base, &pattern](const auto& visit) {
        for (const Tuple& t : base) {
          if (TupleMatchesPattern(t, pattern) && !visit(t)) return;
        }
      };
      const TupleSet want = matching(expected, pattern);
      std::vector<Tuple> seen;
      view.Scan(pattern, scan_base, [&seen](const Tuple& t) {
        seen.push_back(t);
        return true;
      });
      TupleSet got;
      for (const Tuple& t : seen) got.insert(t);
      EXPECT_EQ(got.size(), seen.size()) << "a tuple was emitted twice";
      EXPECT_EQ(got, want);
      // An early stop is honoured in either phase of the scan.
      const size_t limit = rng() % (want.size() + 1);
      size_t emitted = 0;
      view.Scan(pattern, scan_base,
                [&emitted, limit](const Tuple&) { return ++emitted < limit; });
      EXPECT_EQ(emitted, std::min(std::max<size_t>(limit, 1), want.size()));
    }
    for (int64_t a = 0; a <= 5; ++a) {
      for (int64_t b = 0; b <= 5; ++b) {
        EXPECT_EQ(view.Contains(T(a, b),
                                [&base](const Tuple& t) {
                                  return base.contains(t);
                                }),
                  expected.contains(T(a, b)));
      }
    }
  };
  check(DeltaView::Rollback(&delta), new_state,
        RollbackToOldState(new_state, delta));
  check(DeltaView::Forward(&delta), old_state, ApplyDelta(old_state, delta));
  // No Δ-set, or an empty one, reads S as it is.
  const DeltaSet none;
  check(DeltaView::Rollback(nullptr), new_state, new_state);
  check(DeltaView::Forward(&none), old_state, old_state);
}

INSTANTIATE_TEST_SUITE_P(Seeds, DeltaPropertyTest,
                         ::testing::Range(0u, 12u));

}  // namespace
}  // namespace deltamon
