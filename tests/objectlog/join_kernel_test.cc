/// The batch evaluation kernels (eval_kernel.cc): every test evaluates the
/// same differenced clause twice — once through the tuple-at-a-time
/// interpreter (kernels off) and once through the columnar build–probe
/// path (kernels on) — and asserts identical result sets. Shape coverage:
/// empty Δ-sets, duplicate join keys on both sides, Δ− differentials over
/// rolled-back old state, wide tuples, negated and fully-bound literals,
/// the build-vs-probe cost choice, the semi-join pre-filter (with the
/// strategy labels the kernels write into the per-literal profile), and
/// the (head, Δ-row) derivations lineage capture reads from one pass.

#include <gtest/gtest.h>

#include <set>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "objectlog/eval.h"
#include "obs/profile.h"
#include "rules/engine.h"

namespace deltamon::objectlog {
namespace {

ColumnType IntCol() { return ColumnType{ValueKind::kInt, kInvalidTypeId}; }

Tuple T(std::initializer_list<int64_t> vs) {
  Tuple t;
  for (int64_t v : vs) t.Append(Value(v));
  return t;
}

class JoinKernelTest : public ::testing::Test {
 protected:
  RelationId Stored(const std::string& name, size_t arity) {
    FunctionSignature sig;
    sig.argument_types.push_back(IntCol());
    for (size_t i = 1; i < arity; ++i) sig.result_types.push_back(IntCol());
    return *engine_.db.catalog().CreateStoredFunction(name, sig);
  }

  /// Evaluates `clause` with kernels off and on; asserts the two engines
  /// agree and returns the (shared) result set. When `profile` is
  /// non-null it receives the kernels-on run's per-literal profile.
  TupleSet EvalBoth(const Clause& clause,
                    const std::unordered_map<RelationId, DeltaSet>& deltas,
                    obs::Profile* profile = nullptr) {
    StateContext ctx;
    ctx.deltas = &deltas;
    TupleSet interp;
    {
      Evaluator ev(engine_.db, engine_.registry, ctx);
      EXPECT_FALSE(ev.kernels_enabled());  // off by default
      Status s = ev.EvaluateClause(clause, &interp);
      EXPECT_TRUE(s.ok()) << s.ToString();
    }
    TupleSet kernel;
    {
      Evaluator ev(engine_.db, engine_.registry, ctx);
      ev.EnableKernels(true);
      if (profile != nullptr) ev.SetProfiler(profile);
      Status s = ev.EvaluateClause(clause, &kernel);
      EXPECT_TRUE(s.ok()) << s.ToString();
    }
    EXPECT_EQ(kernel, interp);
    return interp;
  }

  /// The access label of the slot whose text contains `needle`, from the
  /// single profiled clause. Empty when obs is compiled out.
  static std::string AccessOf(const obs::Profile& profile,
                              const std::string& needle) {
#if DELTAMON_OBS_ENABLED
    for (const auto& [label, cp] : profile.clauses()) {
      for (const obs::LiteralProfile& slot : cp.slots) {
        if (slot.text.find(needle) != std::string::npos) return slot.access;
      }
    }
#else
    (void)profile;
    (void)needle;
#endif
    return std::string();
  }

  Engine engine_;
};

/// p(X,Z) <- Δ+q(X,Y), r(Y,Z).
Clause DeltaJoinClause(RelationId p, RelationId q, RelationId r) {
  Clause c;
  c.head_relation = p;
  c.num_vars = 3;
  c.head_args = {Term::Var(0), Term::Var(2)};
  c.body = {Literal::Relation(q, {Term::Var(0), Term::Var(1)}),
            Literal::Relation(r, {Term::Var(1), Term::Var(2)})};
  c.body[0].role = RelationRole::kDeltaPlus;
  c.profile_label = "kernel_test";
  return c;
}

TEST_F(JoinKernelTest, EmptyDeltaProducesNothing) {
  RelationId q = Stored("q", 2);
  RelationId r = Stored("r", 2);
  RelationId p = Stored("p", 2);
  ASSERT_TRUE(engine_.db.Insert(r, T({1, 2})).ok());
  std::unordered_map<RelationId, DeltaSet> deltas;  // no entry for q
  EXPECT_TRUE(EvalBoth(DeltaJoinClause(p, q, r), deltas).empty());
  deltas.emplace(q, DeltaSet{});  // present but empty
  EXPECT_TRUE(EvalBoth(DeltaJoinClause(p, q, r), deltas).empty());
}

TEST_F(JoinKernelTest, DuplicateKeysOnBothSidesCrossProduct) {
  RelationId q = Stored("q", 2);
  RelationId r = Stored("r", 2);
  RelationId p = Stored("p", 2);
  // Three Δ rows share key 1; r has two rows for key 1 → 6 join results
  // collapsing to 4 distinct head tuples (X ∈ {10,11,10-dup}, Z ∈ {7,8}).
  TupleSet plus{T({10, 1}), T({11, 1}), T({12, 2})};
  ASSERT_TRUE(engine_.db.Insert(r, T({1, 7})).ok());
  ASSERT_TRUE(engine_.db.Insert(r, T({1, 8})).ok());
  ASSERT_TRUE(engine_.db.Insert(r, T({2, 9})).ok());
  std::unordered_map<RelationId, DeltaSet> deltas;
  deltas.emplace(q, DeltaSet{plus, {}});
  TupleSet out = EvalBoth(DeltaJoinClause(p, q, r), deltas);
  EXPECT_EQ(out, (TupleSet{T({10, 7}), T({10, 8}), T({11, 7}), T({11, 8}),
                           T({12, 9})}));
}

TEST_F(JoinKernelTest, DeltaMinusReadsRolledBackOldState) {
  RelationId q = Stored("q", 2);
  RelationId r = Stored("r", 2);
  RelationId p = Stored("p", 2);
  engine_.db.MarkMonitored(q);
  engine_.db.MarkMonitored(r);
  ASSERT_TRUE(engine_.db.Insert(q, T({10, 1})).ok());
  ASSERT_TRUE(engine_.db.Insert(r, T({1, 7})).ok());
  ASSERT_TRUE(engine_.db.Insert(r, T({2, 8})).ok());
  ASSERT_TRUE(engine_.db.Commit().ok());
  // This transaction deletes q(10,1) and r(1,7) and inserts r(1,9). The
  // Δ− differential joins against r's OLD state, so the deleted r(1,7)
  // must still be visible and the inserted r(1,9) must not.
  ASSERT_TRUE(engine_.db.Delete(q, T({10, 1})).ok());
  ASSERT_TRUE(engine_.db.Delete(r, T({1, 7})).ok());
  ASSERT_TRUE(engine_.db.Insert(r, T({1, 9})).ok());
  Clause c = DeltaJoinClause(p, q, r);
  c.body[0].role = RelationRole::kDeltaMinus;
  c.body[1].state = EvalState::kOld;
  TupleSet out = EvalBoth(c, engine_.db.PendingDeltas());
  EXPECT_EQ(out, (TupleSet{T({10, 7})}));
}

TEST_F(JoinKernelTest, WideTuplesSurviveTheColumnarRoundTrip) {
  RelationId q = Stored("q", 6);
  RelationId r = Stored("r", 6);
  RelationId p = Stored("p", 6);
  // p(A..F') <- Δ+q(A,B,C,D,E,F), r(F,E,A,D',E',F').
  Clause c;
  c.head_relation = p;
  c.num_vars = 9;
  c.head_args = {Term::Var(0), Term::Var(1), Term::Var(2),
                 Term::Var(6), Term::Var(7), Term::Var(8)};
  c.body = {
      Literal::Relation(q, {Term::Var(0), Term::Var(1), Term::Var(2),
                            Term::Var(3), Term::Var(4), Term::Var(5)}),
      Literal::Relation(r, {Term::Var(5), Term::Var(4), Term::Var(0),
                            Term::Var(6), Term::Var(7), Term::Var(8)})};
  c.body[0].role = RelationRole::kDeltaPlus;
  c.profile_label = "kernel_test";
  TupleSet plus;
  for (int64_t i = 0; i < 20; ++i) {
    plus.insert(T({i, i + 1, i + 2, i + 3, i % 4, i % 3}));
    ASSERT_TRUE(
        engine_.db.Insert(r, T({i % 3, i % 4, i, 100 + i, 200 + i, 300 + i}))
            .ok());
  }
  std::unordered_map<RelationId, DeltaSet> deltas;
  deltas.emplace(q, DeltaSet{plus, {}});
  TupleSet out = EvalBoth(c, deltas);
  // Every Δ row joins exactly its own r row (key F,E,A is unique per i).
  TupleSet expected;
  for (int64_t i = 0; i < 20; ++i) {
    expected.insert(T({i, i + 1, i + 2, 100 + i, 200 + i, 300 + i}));
  }
  EXPECT_EQ(out, expected);
}

TEST_F(JoinKernelTest, NegatedAndFullyBoundLiterals) {
  RelationId q = Stored("q", 2);
  RelationId r = Stored("r", 2);
  RelationId s = Stored("s", 1);
  RelationId p = Stored("p", 2);
  // p(X,Y) <- Δ+q(X,Y), r(X,Y), not s(X): r is fully bound after the Δ
  // (existence filter), s is an anti-join.
  Clause c;
  c.head_relation = p;
  c.num_vars = 2;
  c.head_args = {Term::Var(0), Term::Var(1)};
  c.body = {Literal::Relation(q, {Term::Var(0), Term::Var(1)}),
            Literal::Relation(r, {Term::Var(0), Term::Var(1)}),
            Literal::Relation(s, {Term::Var(0)}, /*negated=*/true)};
  c.body[0].role = RelationRole::kDeltaPlus;
  c.profile_label = "kernel_test";
  ASSERT_TRUE(engine_.db.Insert(r, T({1, 10})).ok());
  ASSERT_TRUE(engine_.db.Insert(r, T({2, 20})).ok());
  ASSERT_TRUE(engine_.db.Insert(r, T({3, 30})).ok());
  ASSERT_TRUE(engine_.db.Insert(s, T({2})).ok());
  TupleSet plus{T({1, 10}), T({2, 20}), T({3, 31}), T({4, 40})};
  std::unordered_map<RelationId, DeltaSet> deltas;
  deltas.emplace(q, DeltaSet{plus, {}});
  // (1,10): passes both. (2,20): in r but s(2) kills it. (3,31): not in r.
  // (4,40): not in r.
  EXPECT_EQ(EvalBoth(c, deltas), (TupleSet{T({1, 10})}));
}

TEST_F(JoinKernelTest, BuildSideChosenForSmallExtentLargeDelta) {
  RelationId q = Stored("q", 2);
  RelationId r = Stored("r", 2);
  RelationId p = Stored("p", 2);
  // Small stored extent (4 rows), large Δ (64 rows): the cost model picks
  // the build side (scan r once, probe it per Δ row).
  for (int64_t k = 0; k < 4; ++k) {
    ASSERT_TRUE(engine_.db.Insert(r, T({k, 100 + k})).ok());
  }
  TupleSet plus;
  for (int64_t i = 0; i < 64; ++i) plus.insert(T({i, i % 4}));
  std::unordered_map<RelationId, DeltaSet> deltas;
  deltas.emplace(q, DeltaSet{plus, {}});
  obs::Profile profile;
  TupleSet out = EvalBoth(DeltaJoinClause(p, q, r), deltas, &profile);
  EXPECT_EQ(out.size(), 64u);
#if DELTAMON_OBS_ENABLED
  EXPECT_EQ(AccessOf(profile, "r("), "hash-join/build");
#endif
}

TEST_F(JoinKernelTest, ProbeSideChosenForLargeExtentSmallDelta) {
  RelationId q = Stored("q", 2);
  RelationId r = Stored("r", 2);
  RelationId p = Stored("p", 2);
  // Large stored extent (4096 rows), tiny Δ (2 rows): scanning the whole
  // extent to build would dominate; the cost model probes instead.
  for (int64_t k = 0; k < 4096; ++k) {
    ASSERT_TRUE(engine_.db.Insert(r, T({k, 100 + k})).ok());
  }
  TupleSet plus{T({10, 1}), T({20, 2})};
  std::unordered_map<RelationId, DeltaSet> deltas;
  deltas.emplace(q, DeltaSet{plus, {}});
  obs::Profile profile;
  TupleSet out = EvalBoth(DeltaJoinClause(p, q, r), deltas, &profile);
  EXPECT_EQ(out, (TupleSet{T({10, 101}), T({20, 102})}));
#if DELTAMON_OBS_ENABLED
  EXPECT_EQ(AccessOf(profile, "r("), "hash-join/probe");
#endif
}

TEST_F(JoinKernelTest, SemiJoinPreFilterKeepsResultsIdentical) {
  RelationId q = Stored("q", 2);
  RelationId r = Stored("r", 2);
  RelationId p = Stored("p", 2);
  // p(X,Z) <- Δ+q(X,Y), Y < 50, r(X,Z): the comparison sits between the Δ
  // and the first join literal, so the kernel existence-probes r per
  // distinct X right after materializing the Δ — discarding Δ rows with
  // no partner before the comparison runs.
  Clause c;
  c.head_relation = p;
  c.num_vars = 3;
  c.head_args = {Term::Var(0), Term::Var(2)};
  c.body = {Literal::Relation(q, {Term::Var(0), Term::Var(1)}),
            Literal::Compare(CompareOp::kLt, Term::Var(1),
                             Term::Const(Value(50))),
            Literal::Relation(r, {Term::Var(0), Term::Var(2)})};
  c.body[0].role = RelationRole::kDeltaPlus;
  c.profile_label = "kernel_test";
  ASSERT_TRUE(engine_.db.Insert(r, T({1, 7})).ok());
  ASSERT_TRUE(engine_.db.Insert(r, T({3, 8})).ok());
  TupleSet plus{T({1, 10}), T({1, 60}), T({2, 20}), T({3, 30}), T({4, 5})};
  std::unordered_map<RelationId, DeltaSet> deltas;
  deltas.emplace(q, DeltaSet{plus, {}});
  obs::Profile profile;
  TupleSet out = EvalBoth(c, deltas, &profile);
  EXPECT_EQ(out, (TupleSet{T({1, 7}), T({3, 8})}));
#if DELTAMON_OBS_ENABLED
  EXPECT_EQ(AccessOf(profile, "r("), "semijoin-filtered");
#endif
}

TEST_F(JoinKernelTest, ArithmeticBindingAndCheck) {
  RelationId q = Stored("q", 2);
  RelationId r = Stored("r", 2);
  RelationId p = Stored("p", 2);
  // p(X,S) <- Δ+q(X,Y), r(X,Z), S = Y + Z, S < 100.
  Clause c;
  c.head_relation = p;
  c.num_vars = 4;
  c.head_args = {Term::Var(0), Term::Var(3)};
  c.body = {Literal::Relation(q, {Term::Var(0), Term::Var(1)}),
            Literal::Relation(r, {Term::Var(0), Term::Var(2)}),
            Literal::Arith(ArithOp::kAdd, Term::Var(3), Term::Var(1),
                           Term::Var(2)),
            Literal::Compare(CompareOp::kLt, Term::Var(3),
                             Term::Const(Value(100)))};
  c.body[0].role = RelationRole::kDeltaPlus;
  c.profile_label = "kernel_test";
  ASSERT_TRUE(engine_.db.Insert(r, T({1, 30})).ok());
  ASSERT_TRUE(engine_.db.Insert(r, T({2, 90})).ok());
  TupleSet plus{T({1, 5}), T({2, 20})};
  std::unordered_map<RelationId, DeltaSet> deltas;
  deltas.emplace(q, DeltaSet{plus, {}});
  // (1): 5+30=35 < 100 → (1,35). (2): 20+90=110 ≥ 100 → dropped.
  EXPECT_EQ(EvalBoth(c, deltas), (TupleSet{T({1, 35})}));
}

TEST_F(JoinKernelTest, DerivationsNameTheGeneratorRowInBothEngines) {
  RelationId q = Stored("q", 3);
  RelationId r = Stored("r", 2);
  RelationId p = Stored("p", 2);
  // p(X,Z) <- Δ+q(X,Y,7), r(Y,Z). Neither Y nor the constant reaches the
  // head, yet every derivation must name its full Δ-row: head (1,8) has
  // two of them, and (3,5,9) fails the constant.
  Clause c;
  c.head_relation = p;
  c.num_vars = 3;
  c.head_args = {Term::Var(0), Term::Var(2)};
  c.body = {Literal::Relation(
                q, {Term::Var(0), Term::Var(1), Term::Const(Value(7))}),
            Literal::Relation(r, {Term::Var(1), Term::Var(2)})};
  c.body[0].role = RelationRole::kDeltaPlus;
  c.profile_label = "kernel_test";
  ASSERT_TRUE(engine_.db.Insert(r, T({5, 8})).ok());
  ASSERT_TRUE(engine_.db.Insert(r, T({6, 8})).ok());
  ASSERT_TRUE(engine_.db.Insert(r, T({6, 9})).ok());
  TupleSet plus{T({1, 5, 7}), T({1, 6, 7}), T({2, 6, 7}), T({3, 5, 9})};
  std::unordered_map<RelationId, DeltaSet> deltas;
  deltas.emplace(q, DeltaSet{plus, {}});
  StateContext ctx;
  ctx.deltas = &deltas;

  const std::set<std::pair<Tuple, Tuple>> expected{
      {T({1, 8}), T({1, 5, 7})}, {T({1, 8}), T({1, 6, 7})},
      {T({1, 9}), T({1, 6, 7})}, {T({2, 8}), T({2, 6, 7})},
      {T({2, 9}), T({2, 6, 7})}};
  for (bool kernels : {false, true}) {
    SCOPED_TRACE(kernels ? "kernels on" : "kernels off");
    Evaluator ev(engine_.db, engine_.registry, ctx);
    ev.EnableKernels(kernels);
    TupleSet out;
    Derivations derivations;
    ASSERT_TRUE(ev.EvaluateClause(c, &out, &derivations).ok());
    EXPECT_EQ(ev.stats().clause_evals, 1u);
    std::set<std::pair<Tuple, Tuple>> got;
    for (const Derivation& d : derivations) {
      EXPECT_TRUE(out.contains(d.head));
      got.emplace(d.head, d.delta_row);
    }
    EXPECT_EQ(got, expected);
    EXPECT_EQ(out.size(), 4u);

    // Without a Δ-role generator there is no row to report.
    Clause no_generator = c;
    no_generator.body[0].role = RelationRole::kExtent;
    EXPECT_FALSE(ev.EvaluateClause(no_generator, &out, &derivations).ok());
  }
}

}  // namespace
}  // namespace deltamon::objectlog
