#include "objectlog/eval.h"

#include <string>

#include <gtest/gtest.h>

#include "rules/engine.h"

namespace deltamon::objectlog {
namespace {

ColumnType IntCol() { return ColumnType{ValueKind::kInt, kInvalidTypeId}; }
Tuple T(int64_t a) { return Tuple{Value(a)}; }
Tuple T(int64_t a, int64_t b) { return Tuple{Value(a), Value(b)}; }

/// Fixture with q(int,int), r(int,int) stored and p(X,Z) <- q(X,Y), r(Y,Z).
class EvalTest : public ::testing::Test {
 protected:
  void SetUp() override {
    q_ = *engine_.db.catalog().CreateStoredFunction(
        "q", FunctionSignature{{IntCol()}, {IntCol()}});
    r_ = *engine_.db.catalog().CreateStoredFunction(
        "r", FunctionSignature{{IntCol()}, {IntCol()}});
    p_ = *engine_.db.catalog().CreateDerivedFunction(
        "p", FunctionSignature{{}, {IntCol(), IntCol()}});
    Clause c;
    c.head_relation = p_;
    c.num_vars = 3;
    c.head_args = {Term::Var(0), Term::Var(2)};
    c.body = {Literal::Relation(q_, {Term::Var(0), Term::Var(1)}),
              Literal::Relation(r_, {Term::Var(1), Term::Var(2)})};
    ASSERT_TRUE(
        engine_.registry.Define(p_, std::move(c), engine_.db.catalog()).ok());
  }

  void Populate() {
    ASSERT_TRUE(engine_.db.Insert(q_, T(1, 1)).ok());
    ASSERT_TRUE(engine_.db.Insert(r_, T(1, 2)).ok());
    ASSERT_TRUE(engine_.db.Insert(r_, T(2, 3)).ok());
  }

  TupleSet Eval(RelationId rel, EvalState state = EvalState::kNew,
                const std::unordered_map<RelationId, DeltaSet>* deltas =
                    nullptr) {
    StateContext ctx;
    ctx.deltas = deltas;
    Evaluator ev(engine_.db, engine_.registry, ctx);
    TupleSet out;
    Status s = ev.Evaluate(rel, state, &out);
    EXPECT_TRUE(s.ok()) << s.ToString();
    return out;
  }

  Engine engine_;
  RelationId q_ = kInvalidRelationId;
  RelationId r_ = kInvalidRelationId;
  RelationId p_ = kInvalidRelationId;
};

TEST_F(EvalTest, JoinDerivesPaperResult) {
  Populate();
  EXPECT_EQ(Eval(p_), (TupleSet{T(1, 2)}));
}

TEST_F(EvalTest, BaseRelationEvaluatesToItsRows) {
  Populate();
  EXPECT_EQ(Eval(r_), (TupleSet{T(1, 2), T(2, 3)}));
}

TEST_F(EvalTest, NewStateSeesTransactionUpdates) {
  Populate();
  ASSERT_TRUE(engine_.db.Insert(q_, T(1, 2)).ok());
  EXPECT_EQ(Eval(p_), (TupleSet{T(1, 2), T(1, 3)}));
}

TEST_F(EvalTest, OldStateViaRollback) {
  Populate();
  engine_.db.MarkMonitored(q_);
  engine_.db.MarkMonitored(r_);
  ASSERT_TRUE(engine_.db.Commit().ok());
  ASSERT_TRUE(engine_.db.Insert(q_, T(1, 2)).ok());
  ASSERT_TRUE(engine_.db.Delete(r_, T(1, 2)).ok());
  const auto& deltas = engine_.db.PendingDeltas();
  // New state: p = {(1,3)} (q(1,2) joins r(2,3); r(1,2) is gone).
  EXPECT_EQ(Eval(p_, EvalState::kNew, &deltas), (TupleSet{T(1, 3)}));
  // Old state: p = {(1,2)} as before the transaction.
  EXPECT_EQ(Eval(p_, EvalState::kOld, &deltas), (TupleSet{T(1, 2)}));
  // Old state of the base relations themselves.
  EXPECT_EQ(Eval(q_, EvalState::kOld, &deltas), (TupleSet{T(1, 1)}));
  EXPECT_EQ(Eval(r_, EvalState::kOld, &deltas),
            (TupleSet{T(1, 2), T(2, 3)}));
}

TEST_F(EvalTest, DerivablePointQuery) {
  Populate();
  StateContext ctx;
  Evaluator ev(engine_.db, engine_.registry, ctx);
  EXPECT_TRUE(*ev.Derivable(p_, EvalState::kNew, T(1, 2)));
  EXPECT_FALSE(*ev.Derivable(p_, EvalState::kNew, T(1, 3)));
  EXPECT_TRUE(*ev.Derivable(q_, EvalState::kNew, T(1, 1)));
}

TEST_F(EvalTest, ConstantsInClauseArgs) {
  Populate();
  RelationId v = *engine_.db.catalog().CreateDerivedFunction(
      "v_const", FunctionSignature{{}, {IntCol()}});
  // v(Z) <- r(2, Z).
  Clause c;
  c.head_relation = v;
  c.num_vars = 1;
  c.head_args = {Term::Var(0)};
  c.body = {Literal::Relation(r_, {Term::Const(Value(2)), Term::Var(0)})};
  ASSERT_TRUE(
      engine_.registry.Define(v, std::move(c), engine_.db.catalog()).ok());
  EXPECT_EQ(Eval(v), (TupleSet{T(3)}));
}

TEST_F(EvalTest, RepeatedVariableInLiteral) {
  // v(X) <- r(X, X).
  ASSERT_TRUE(engine_.db.Insert(r_, T(5, 5)).ok());
  ASSERT_TRUE(engine_.db.Insert(r_, T(5, 6)).ok());
  RelationId v = *engine_.db.catalog().CreateDerivedFunction(
      "v_rep", FunctionSignature{{}, {IntCol()}});
  Clause c;
  c.head_relation = v;
  c.num_vars = 1;
  c.head_args = {Term::Var(0)};
  c.body = {Literal::Relation(r_, {Term::Var(0), Term::Var(0)})};
  ASSERT_TRUE(
      engine_.registry.Define(v, std::move(c), engine_.db.catalog()).ok());
  EXPECT_EQ(Eval(v), (TupleSet{T(5)}));
}

TEST_F(EvalTest, ArithmeticAndComparison) {
  // v(X, Y2) <- q(X, Y), Y2 = Y * 10, Y2 > 5.
  ASSERT_TRUE(engine_.db.Insert(q_, T(1, 1)).ok());
  ASSERT_TRUE(engine_.db.Insert(q_, T(2, 0)).ok());
  RelationId v = *engine_.db.catalog().CreateDerivedFunction(
      "v_arith", FunctionSignature{{}, {IntCol(), IntCol()}});
  Clause c;
  c.head_relation = v;
  c.num_vars = 3;
  c.head_args = {Term::Var(0), Term::Var(2)};
  c.body = {Literal::Relation(q_, {Term::Var(0), Term::Var(1)}),
            Literal::Arith(ArithOp::kMul, Term::Var(2), Term::Var(1),
                           Term::Const(Value(10))),
            Literal::Compare(CompareOp::kGt, Term::Var(2),
                             Term::Const(Value(5)))};
  ASSERT_TRUE(
      engine_.registry.Define(v, std::move(c), engine_.db.catalog()).ok());
  EXPECT_EQ(Eval(v), (TupleSet{T(1, 10)}));
}

TEST_F(EvalTest, ArithmeticFailureMakesBranchUnderivable) {
  // v(X, D) <- q(X, Y), D = 10 / Y: the Y=0 row silently derives nothing.
  ASSERT_TRUE(engine_.db.Insert(q_, T(1, 2)).ok());
  ASSERT_TRUE(engine_.db.Insert(q_, T(2, 0)).ok());
  RelationId v = *engine_.db.catalog().CreateDerivedFunction(
      "v_div", FunctionSignature{{}, {IntCol(), IntCol()}});
  Clause c;
  c.head_relation = v;
  c.num_vars = 3;
  c.head_args = {Term::Var(0), Term::Var(2)};
  c.body = {Literal::Relation(q_, {Term::Var(0), Term::Var(1)}),
            Literal::Arith(ArithOp::kDiv, Term::Var(2),
                           Term::Const(Value(10)), Term::Var(1))};
  ASSERT_TRUE(
      engine_.registry.Define(v, std::move(c), engine_.db.catalog()).ok());
  EXPECT_EQ(Eval(v), (TupleSet{T(1, 5)}));
}

TEST_F(EvalTest, EqualityBinder) {
  // v(X, Y) <- q(X, Y), Z = Y, Z > 0 — `=` binds Z.
  ASSERT_TRUE(engine_.db.Insert(q_, T(1, 3)).ok());
  ASSERT_TRUE(engine_.db.Insert(q_, T(2, -1)).ok());
  RelationId v = *engine_.db.catalog().CreateDerivedFunction(
      "v_eq", FunctionSignature{{}, {IntCol(), IntCol()}});
  Clause c;
  c.head_relation = v;
  c.num_vars = 3;
  c.head_args = {Term::Var(0), Term::Var(1)};
  c.body = {Literal::Relation(q_, {Term::Var(0), Term::Var(1)}),
            Literal::Compare(CompareOp::kEq, Term::Var(2), Term::Var(1)),
            Literal::Compare(CompareOp::kGt, Term::Var(2),
                             Term::Const(Value(0)))};
  ASSERT_TRUE(
      engine_.registry.Define(v, std::move(c), engine_.db.catalog()).ok());
  EXPECT_EQ(Eval(v), (TupleSet{T(1, 3)}));
}

TEST_F(EvalTest, NegatedLiteralFilters) {
  // v(X) <- q(X, Y), ~r(Y, 3).
  ASSERT_TRUE(engine_.db.Insert(q_, T(1, 2)).ok());  // r(2,3) exists: blocked
  ASSERT_TRUE(engine_.db.Insert(q_, T(4, 9)).ok());  // no r(9,3): passes
  ASSERT_TRUE(engine_.db.Insert(r_, T(2, 3)).ok());
  RelationId v = *engine_.db.catalog().CreateDerivedFunction(
      "v_neg", FunctionSignature{{}, {IntCol()}});
  Clause c;
  c.head_relation = v;
  c.num_vars = 2;
  c.head_args = {Term::Var(0)};
  c.body = {Literal::Relation(q_, {Term::Var(0), Term::Var(1)}),
            Literal::Relation(r_, {Term::Var(1), Term::Const(Value(3))},
                              /*negated=*/true)};
  ASSERT_TRUE(
      engine_.registry.Define(v, std::move(c), engine_.db.catalog()).ok());
  EXPECT_EQ(Eval(v), (TupleSet{T(4)}));
}

TEST_F(EvalTest, MultiClauseDisjunction) {
  // v(X) <- q(X, 1).   v(X) <- r(X, 3).
  ASSERT_TRUE(engine_.db.Insert(q_, T(7, 1)).ok());
  ASSERT_TRUE(engine_.db.Insert(r_, T(2, 3)).ok());
  RelationId v = *engine_.db.catalog().CreateDerivedFunction(
      "v_disj", FunctionSignature{{}, {IntCol()}});
  for (RelationId rel : {q_, r_}) {
    Clause c;
    c.head_relation = v;
    c.num_vars = 1;
    c.head_args = {Term::Var(0)};
    c.body = {Literal::Relation(
        rel, {Term::Var(0), Term::Const(Value(rel == q_ ? 1 : 3))})};
    ASSERT_TRUE(
        engine_.registry.Define(v, std::move(c), engine_.db.catalog()).ok());
  }
  EXPECT_EQ(Eval(v), (TupleSet{T(7), T(2)}));
}

TEST_F(EvalTest, DeltaRoleLiteralReadsDeltaSet) {
  Populate();
  // Differential-shaped clause: dp(X,Z) <- Δ+q(X,Y), r(Y,Z).
  RelationId dp = *engine_.db.catalog().CreateDerivedFunction(
      "dp", FunctionSignature{{}, {IntCol(), IntCol()}});
  Clause c;
  c.head_relation = dp;
  c.num_vars = 3;
  c.head_args = {Term::Var(0), Term::Var(2)};
  Literal dq = Literal::Relation(q_, {Term::Var(0), Term::Var(1)});
  dq.role = RelationRole::kDeltaPlus;
  c.body = {dq, Literal::Relation(r_, {Term::Var(1), Term::Var(2)})};

  std::unordered_map<RelationId, DeltaSet> deltas;
  deltas[q_] = DeltaSet({T(5, 2)}, {});
  StateContext ctx;
  ctx.deltas = &deltas;
  Evaluator ev(engine_.db, engine_.registry, ctx);
  TupleSet out;
  ASSERT_TRUE(ev.EvaluateClause(c, &out).ok());
  EXPECT_EQ(out, (TupleSet{T(5, 3)}));
}

TEST_F(EvalTest, OrderBodyPutsDeltaFirstThenFiltersThenScans) {
  Clause c;
  c.num_vars = 3;
  Literal scan = Literal::Relation(r_, {Term::Var(1), Term::Var(2)});
  Literal cmp = Literal::Compare(CompareOp::kLt, Term::Var(1), Term::Var(2));
  Literal dq = Literal::Relation(q_, {Term::Var(0), Term::Var(1)});
  dq.role = RelationRole::kDeltaPlus;
  c.body = {scan, cmp, dq};
  std::vector<size_t> order = Evaluator::OrderBody(c.body, c.num_vars);
  ASSERT_EQ(order.size(), 3u);
  EXPECT_EQ(order[0], 2u);  // Δ generator first
  // After Δq binds vars 0,1 the scan of r is an indexed probe; the compare
  // needs var 2 and must come after it.
  EXPECT_EQ(order[1], 0u);
  EXPECT_EQ(order[2], 1u);
}

TEST_F(EvalTest, StatsCountWork) {
  Populate();
  StateContext ctx;
  Evaluator ev(engine_.db, engine_.registry, ctx);
  TupleSet out;
  ASSERT_TRUE(ev.Evaluate(p_, EvalState::kNew, &out).ok());
  EXPECT_GT(ev.stats().clause_evals, 0u);
  EXPECT_GT(ev.stats().tuples_examined, 0u);
}

/// "clauses C, probes P, examined E, bindings B" — the evaluator's work.
std::string Work(const Evaluator& ev) {
  const Evaluator::Stats& s = ev.stats();
  return "clauses " + std::to_string(s.clause_evals) + ", probes " +
         std::to_string(s.literal_probes) + ", examined " +
         std::to_string(s.tuples_examined) + ", bindings " +
         std::to_string(s.bindings_produced);
}

/// The interpreter's clause paths and both Δ-set views (OLD-state rollback,
/// transaction overlay) do a fixed amount of work for a fixed scenario; a
/// change to either must keep these counts and the read footprint.
TEST_F(EvalTest, StatsPinnedForFixedScenario) {
  Populate();  // q(1,1); r(1,2), r(2,3)
  Catalog& cat = engine_.db.catalog();
  // v(X, 1) <- q(X, Y).   v(X, 2) <- r(X, Y).
  RelationId v = *cat.CreateDerivedFunction(
      "v_tagged", FunctionSignature{{}, {IntCol(), IntCol()}});
  for (RelationId rel : {q_, r_}) {
    Clause c;
    c.head_relation = v;
    c.num_vars = 2;
    c.head_args = {Term::Var(0), Term::Const(Value(rel == q_ ? 1 : 2))};
    c.body = {Literal::Relation(rel, {Term::Var(0), Term::Var(1)})};
    ASSERT_TRUE(engine_.registry.Define(v, std::move(c), cat).ok());
  }
  engine_.db.MarkMonitored(q_);
  engine_.db.MarkMonitored(r_);
  ASSERT_TRUE(engine_.db.Commit().ok());

  {
    // A transactional select over a buffered overlay.
    TxnSnapshot txn;
    ASSERT_TRUE(txn.BufferInsert(cat, q_, T(2, 2)).ok());
    ASSERT_TRUE(txn.BufferDelete(cat, r_, T(2, 3)).ok());
    ASSERT_TRUE(txn.BufferInsert(cat, r_, T(2, 4)).ok());
    StateContext ctx;
    ctx.txn = &txn;
    Evaluator ev(engine_.db, engine_.registry, ctx);
    TupleSet out;
    ASSERT_TRUE(ev.Evaluate(p_, EvalState::kNew, &out).ok());
    EXPECT_EQ(out, (TupleSet{T(1, 2), T(2, 4)}));
    EXPECT_TRUE(*ev.Derivable(q_, EvalState::kNew, T(2, 2)));
    EXPECT_FALSE(*ev.Derivable(r_, EvalState::kNew, T(2, 3)));
    EXPECT_EQ(Work(ev), "clauses 1, probes 3, examined 4, bindings 6");
    // The read footprint: a full scan of q, point reads and prefix probes
    // of r.
    EXPECT_TRUE(txn.reads().at(q_).full);
    EXPECT_FALSE(txn.reads().at(r_).full);
    EXPECT_EQ(txn.reads().at(r_).patterns.size(), 4u);
  }

  // Pending changes: Δ+q = {(2,2)}, Δ+r = {(2,5)}, Δ−r = {(1,2)}.
  ASSERT_TRUE(engine_.db.Insert(q_, T(2, 2)).ok());
  ASSERT_TRUE(engine_.db.Delete(r_, T(1, 2)).ok());
  ASSERT_TRUE(engine_.db.Insert(r_, T(2, 5)).ok());
  StateContext ctx;
  ctx.deltas = &engine_.db.PendingDeltas();
  {
    // An OLD-state Evaluate.
    Evaluator ev(engine_.db, engine_.registry, ctx);
    TupleSet out;
    ASSERT_TRUE(ev.Evaluate(p_, EvalState::kOld, &out).ok());
    EXPECT_EQ(out, (TupleSet{T(1, 2)}));
    EXPECT_EQ(Work(ev), "clauses 1, probes 2, examined 2, bindings 3");
  }
  {
    // Derivable: one head-infeasible clause, one witness, one miss.
    Evaluator ev(engine_.db, engine_.registry, ctx);
    EXPECT_TRUE(*ev.Derivable(v, EvalState::kOld, T(2, 2)));
    EXPECT_TRUE(*ev.Derivable(v, EvalState::kOld, T(1, 1)));
    EXPECT_FALSE(*ev.Derivable(p_, EvalState::kNew, T(1, 2)));
    EXPECT_EQ(Work(ev), "clauses 4, probes 4, examined 3, bindings 3");
  }
  {
    // Probes with a partial pattern on derived relations.
    Evaluator ev(engine_.db, engine_.registry, ctx);
    TupleSet out;
    ASSERT_TRUE(
        ev.Probe(v, EvalState::kNew, {std::nullopt, Value(2)}, &out).ok());
    EXPECT_EQ(out, (TupleSet{T(2, 2)}));
    out.clear();
    ASSERT_TRUE(
        ev.Probe(p_, EvalState::kOld, {Value(1), std::nullopt}, &out).ok());
    EXPECT_EQ(out, (TupleSet{T(1, 2)}));
    EXPECT_EQ(Work(ev), "clauses 3, probes 5, examined 6, bindings 6");
  }
}

TEST_F(EvalTest, UnknownRelationReportsNotFound) {
  StateContext ctx;
  Evaluator ev(engine_.db, engine_.registry, ctx);
  TupleSet out;
  RelationId ghost = *engine_.db.catalog().CreateDerivedFunction(
      "ghost", FunctionSignature{{}, {IntCol()}});
  EXPECT_EQ(ev.Evaluate(ghost, EvalState::kNew, &out).code(),
            StatusCode::kNotFound);
}

}  // namespace
}  // namespace deltamon::objectlog
