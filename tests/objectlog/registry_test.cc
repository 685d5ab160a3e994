#include "objectlog/registry.h"

#include <gtest/gtest.h>

#include "objectlog/eval.h"
#include "rules/engine.h"

namespace deltamon::objectlog {
namespace {

ColumnType IntCol() { return ColumnType{ValueKind::kInt, kInvalidTypeId}; }
Tuple T(int64_t a) { return Tuple{Value(a)}; }
Tuple T(int64_t a, int64_t b) { return Tuple{Value(a), Value(b)}; }

class RegistryTest : public ::testing::Test {
 protected:
  void SetUp() override {
    q_ = *engine_.db.catalog().CreateStoredFunction(
        "q", FunctionSignature{{IntCol()}, {IntCol()}});
    r_ = *engine_.db.catalog().CreateStoredFunction(
        "r", FunctionSignature{{IntCol()}, {IntCol()}});
  }

  RelationId Derived(const std::string& name, size_t arity) {
    FunctionSignature sig;
    for (size_t i = 0; i < arity; ++i) sig.result_types.push_back(IntCol());
    return *engine_.db.catalog().CreateDerivedFunction(name, std::move(sig));
  }

  TupleSet EvalClauses(const std::vector<Clause>& clauses) {
    StateContext ctx;
    Evaluator ev(engine_.db, engine_.registry, ctx);
    TupleSet out;
    for (const Clause& c : clauses) {
      Status s = ev.EvaluateClause(c, &out);
      EXPECT_TRUE(s.ok()) << s.ToString();
    }
    return out;
  }

  Engine engine_;
  RelationId q_ = kInvalidRelationId;
  RelationId r_ = kInvalidRelationId;
};

TEST_F(RegistryTest, DefineRejectsBaseRelations) {
  Clause c;
  c.head_relation = q_;
  EXPECT_FALSE(engine_.registry.Define(q_, c, engine_.db.catalog()).ok());
}

TEST_F(RegistryTest, DefineRejectsArityMismatch) {
  RelationId v = Derived("v", 2);
  Clause c;
  c.head_relation = v;
  c.num_vars = 1;
  c.head_args = {Term::Var(0)};  // arity 1 vs signature arity 2
  c.body = {Literal::Relation(q_, {Term::Var(0), Term::Var(0)})};
  EXPECT_FALSE(engine_.registry.Define(v, c, engine_.db.catalog()).ok());
}

TEST_F(RegistryTest, DefineRejectsUnsafeHeadVariable) {
  RelationId v = Derived("v", 1);
  Clause c;
  c.head_relation = v;
  c.num_vars = 2;
  c.head_args = {Term::Var(1)};  // var 1 never bound
  c.body = {Literal::Relation(q_, {Term::Var(0), Term::Var(0)})};
  EXPECT_FALSE(engine_.registry.Define(v, c, engine_.db.catalog()).ok());
}

TEST_F(RegistryTest, DefineRejectsUnsafeNegation) {
  RelationId v = Derived("v", 1);
  Clause c;
  c.head_relation = v;
  c.num_vars = 2;
  c.head_args = {Term::Var(0)};
  c.body = {Literal::Relation(q_, {Term::Var(0), Term::Var(0)}),
            Literal::Relation(r_, {Term::Var(1), Term::Var(1)},
                              /*negated=*/true)};
  EXPECT_FALSE(engine_.registry.Define(v, c, engine_.db.catalog()).ok());
}

TEST_F(RegistryTest, ArithOutputCountsAsBound) {
  RelationId v = Derived("v", 1);
  Clause c;
  c.head_relation = v;
  c.num_vars = 3;
  c.head_args = {Term::Var(2)};
  c.body = {Literal::Relation(q_, {Term::Var(0), Term::Var(1)}),
            Literal::Arith(ArithOp::kAdd, Term::Var(2), Term::Var(0),
                           Term::Var(1))};
  EXPECT_TRUE(engine_.registry.Define(v, c, engine_.db.catalog()).ok());
}

TEST_F(RegistryTest, ExpandInlinesDerivedLiteral) {
  // inner(X,Y) <- q(X,Y); outer(X,Z) <- inner(X,Y), r(Y,Z).
  RelationId inner = Derived("inner", 2);
  RelationId outer = Derived("outer", 2);
  {
    Clause c;
    c.head_relation = inner;
    c.num_vars = 2;
    c.head_args = {Term::Var(0), Term::Var(1)};
    c.body = {Literal::Relation(q_, {Term::Var(0), Term::Var(1)})};
    ASSERT_TRUE(engine_.registry.Define(inner, c, engine_.db.catalog()).ok());
  }
  {
    Clause c;
    c.head_relation = outer;
    c.num_vars = 3;
    c.head_args = {Term::Var(0), Term::Var(2)};
    c.body = {Literal::Relation(inner, {Term::Var(0), Term::Var(1)}),
              Literal::Relation(r_, {Term::Var(1), Term::Var(2)})};
    ASSERT_TRUE(engine_.registry.Define(outer, c, engine_.db.catalog()).ok());
  }

  auto expanded = engine_.registry.Expand(outer, {});
  ASSERT_TRUE(expanded.ok()) << expanded.status().ToString();
  ASSERT_EQ(expanded->size(), 1u);
  // Only base relations remain.
  for (const Literal& lit : (*expanded)[0].body) {
    if (lit.kind == Literal::Kind::kRelation) {
      EXPECT_FALSE(engine_.db.catalog().IsDerived(lit.relation));
    }
  }
  // Expanded and unexpanded clauses compute the same extent.
  ASSERT_TRUE(engine_.db.Insert(q_, T(1, 2)).ok());
  ASSERT_TRUE(engine_.db.Insert(r_, T(2, 9)).ok());
  EXPECT_EQ(EvalClauses(*expanded), (TupleSet{T(1, 9)}));
}

TEST_F(RegistryTest, ExpandRespectsKeepSet) {
  RelationId inner = Derived("inner", 2);
  RelationId outer = Derived("outer", 2);
  Clause ci;
  ci.head_relation = inner;
  ci.num_vars = 2;
  ci.head_args = {Term::Var(0), Term::Var(1)};
  ci.body = {Literal::Relation(q_, {Term::Var(0), Term::Var(1)})};
  ASSERT_TRUE(engine_.registry.Define(inner, ci, engine_.db.catalog()).ok());
  Clause co;
  co.head_relation = outer;
  co.num_vars = 3;
  co.head_args = {Term::Var(0), Term::Var(2)};
  co.body = {Literal::Relation(inner, {Term::Var(0), Term::Var(1)}),
             Literal::Relation(r_, {Term::Var(1), Term::Var(2)})};
  ASSERT_TRUE(engine_.registry.Define(outer, co, engine_.db.catalog()).ok());

  auto expanded = engine_.registry.Expand(outer, {inner});
  ASSERT_TRUE(expanded.ok());
  bool saw_inner = false;
  for (const Literal& lit : (*expanded)[0].body) {
    if (lit.kind == Literal::Kind::kRelation && lit.relation == inner) {
      saw_inner = true;
    }
  }
  EXPECT_TRUE(saw_inner);
}

TEST_F(RegistryTest, ExpandMultiClauseProducesProduct) {
  // u has two clauses; w(X) <- u(X, Y), u(Y, Z) expands to 4 clauses.
  RelationId u = Derived("u", 2);
  for (RelationId base : {q_, r_}) {
    Clause c;
    c.head_relation = u;
    c.num_vars = 2;
    c.head_args = {Term::Var(0), Term::Var(1)};
    c.body = {Literal::Relation(base, {Term::Var(0), Term::Var(1)})};
    ASSERT_TRUE(engine_.registry.Define(u, c, engine_.db.catalog()).ok());
  }
  RelationId w = Derived("w", 1);
  Clause c;
  c.head_relation = w;
  c.num_vars = 3;
  c.head_args = {Term::Var(0)};
  c.body = {Literal::Relation(u, {Term::Var(0), Term::Var(1)}),
            Literal::Relation(u, {Term::Var(1), Term::Var(2)})};
  ASSERT_TRUE(engine_.registry.Define(w, c, engine_.db.catalog()).ok());

  auto expanded = engine_.registry.Expand(w, {});
  ASSERT_TRUE(expanded.ok());
  EXPECT_EQ(expanded->size(), 4u);
  // Semantics preserved: u = q ∪ r; w(X) iff u(X,·) joins u(·,·).
  ASSERT_TRUE(engine_.db.Insert(q_, T(1, 2)).ok());
  ASSERT_TRUE(engine_.db.Insert(r_, T(2, 5)).ok());
  EXPECT_EQ(EvalClauses(*expanded), (TupleSet{T(1)}));
}

TEST_F(RegistryTest, ExpandConstantHeadAddsEqualityCheck) {
  // only2(X) <- q(2, X); top(Y) <- only2(Y).
  RelationId only2 = Derived("only2", 1);
  Clause c2;
  c2.head_relation = only2;
  c2.num_vars = 1;
  c2.head_args = {Term::Var(0)};
  c2.body = {Literal::Relation(q_, {Term::Const(Value(2)), Term::Var(0)})};
  ASSERT_TRUE(engine_.registry.Define(only2, c2, engine_.db.catalog()).ok());
  RelationId top = Derived("top", 1);
  Clause ct;
  ct.head_relation = top;
  ct.num_vars = 1;
  ct.head_args = {Term::Var(0)};
  ct.body = {Literal::Relation(only2, {Term::Var(0)})};
  ASSERT_TRUE(engine_.registry.Define(top, ct, engine_.db.catalog()).ok());

  auto expanded = engine_.registry.Expand(top, {});
  ASSERT_TRUE(expanded.ok());
  ASSERT_TRUE(engine_.db.Insert(q_, T(2, 7)).ok());
  ASSERT_TRUE(engine_.db.Insert(q_, T(3, 8)).ok());
  EXPECT_EQ(EvalClauses(*expanded), (TupleSet{T(7)}));
}

TEST_F(RegistryTest, RecursiveRelationsDetectedAndKeptUnexpanded) {
  RelationId v = Derived("v", 1);
  Clause c;
  c.head_relation = v;
  c.num_vars = 2;
  c.head_args = {Term::Var(0)};
  c.body = {Literal::Relation(q_, {Term::Var(0), Term::Var(1)}),
            Literal::Relation(v, {Term::Var(1)})};
  ASSERT_TRUE(engine_.registry.Define(v, c, engine_.db.catalog()).ok());
  EXPECT_TRUE(engine_.registry.IsRecursive(v));
  EXPECT_FALSE(engine_.registry.IsRecursive(q_));
  // Expansion keeps the recursive self-reference in place (it becomes a
  // fixpoint node in propagation networks).
  auto expanded = engine_.registry.Expand(v, {});
  ASSERT_TRUE(expanded.ok()) << expanded.status();
  bool saw_self = false;
  for (const Literal& lit : (*expanded)[0].body) {
    if (lit.kind == Literal::Kind::kRelation && lit.relation == v) {
      saw_self = true;
    }
  }
  EXPECT_TRUE(saw_self);
}

TEST_F(RegistryTest, MutualRecursionDetected) {
  RelationId a = Derived("mra", 1);
  RelationId b = Derived("mrb", 1);
  Clause ca;
  ca.head_relation = a;
  ca.num_vars = 2;
  ca.head_args = {Term::Var(0)};
  ca.body = {Literal::Relation(q_, {Term::Var(0), Term::Var(1)}),
             Literal::Relation(b, {Term::Var(1)})};
  ASSERT_TRUE(engine_.registry.Define(a, ca, engine_.db.catalog()).ok());
  Clause cb;
  cb.head_relation = b;
  cb.num_vars = 2;
  cb.head_args = {Term::Var(0)};
  cb.body = {Literal::Relation(r_, {Term::Var(0), Term::Var(1)}),
             Literal::Relation(a, {Term::Var(1)})};
  ASSERT_TRUE(engine_.registry.Define(b, cb, engine_.db.catalog()).ok());
  EXPECT_TRUE(engine_.registry.IsRecursive(a));
  EXPECT_TRUE(engine_.registry.IsRecursive(b));
}

TEST_F(RegistryTest, ReaderOfARecursiveRelationIsNotRecursive) {
  // v is on a cycle; w only reads it, so w reaches v but not itself.
  RelationId v = Derived("v", 1);
  Clause cv;
  cv.head_relation = v;
  cv.num_vars = 2;
  cv.head_args = {Term::Var(0)};
  cv.body = {Literal::Relation(q_, {Term::Var(0), Term::Var(1)}),
             Literal::Relation(v, {Term::Var(1)})};
  ASSERT_TRUE(engine_.registry.Define(v, cv, engine_.db.catalog()).ok());
  RelationId w = Derived("w", 1);
  Clause cw;
  cw.head_relation = w;
  cw.num_vars = 1;
  cw.head_args = {Term::Var(0)};
  cw.body = {Literal::Relation(v, {Term::Var(0)})};
  ASSERT_TRUE(engine_.registry.Define(w, cw, engine_.db.catalog()).ok());
  EXPECT_TRUE(engine_.registry.IsRecursive(v));
  EXPECT_FALSE(engine_.registry.IsRecursive(w));
}

TEST_F(RegistryTest, CycleClosedByTheLastDefineMakesItsMembersRecursive) {
  // a -> b -> c, then c -> a closes the cycle: a becomes recursive only
  // when the last definition arrives.
  RelationId a = Derived("cya", 1);
  RelationId b = Derived("cyb", 1);
  RelationId c = Derived("cyc", 1);
  auto define = [&](RelationId head, RelationId read) {
    Clause clause;
    clause.head_relation = head;
    clause.num_vars = 2;
    clause.head_args = {Term::Var(0)};
    clause.body = {Literal::Relation(q_, {Term::Var(0), Term::Var(1)}),
                   Literal::Relation(read, {Term::Var(1)})};
    return engine_.registry.Define(head, clause, engine_.db.catalog());
  };
  ASSERT_TRUE(define(a, b).ok());
  ASSERT_TRUE(define(b, c).ok());
  EXPECT_FALSE(engine_.registry.IsRecursive(a));
  EXPECT_FALSE(engine_.registry.IsRecursive(b));
  ASSERT_TRUE(define(c, a).ok());
  EXPECT_TRUE(engine_.registry.IsRecursive(a));
  EXPECT_TRUE(engine_.registry.IsRecursive(b));
  EXPECT_TRUE(engine_.registry.IsRecursive(c));
}

TEST_F(RegistryTest, CycleThroughAnAggregateSourceIsRecursive) {
  // x reads the count per key of x itself: x -> counts -> x.
  RelationId x = Derived("agx", 2);
  RelationId counts = Derived("agcounts", 2);
  Clause cx;
  cx.head_relation = x;
  cx.num_vars = 3;
  cx.head_args = {Term::Var(0), Term::Var(1)};
  cx.body = {Literal::Relation(q_, {Term::Var(0), Term::Var(1)}),
             Literal::Relation(counts, {Term::Var(0), Term::Var(2)})};
  ASSERT_TRUE(engine_.registry.Define(x, cx, engine_.db.catalog()).ok());
  EXPECT_FALSE(engine_.registry.IsRecursive(x));
  AggregateDef def;
  def.source = x;
  def.group_by = {0};
  def.func = AggregateDef::Func::kCount;
  ASSERT_TRUE(engine_.registry
                  .DefineAggregate(counts, def, engine_.db.catalog())
                  .ok());
  EXPECT_TRUE(engine_.registry.IsRecursive(x));
  EXPECT_TRUE(engine_.registry.IsRecursive(counts));
}

TEST_F(RegistryTest, NegatedDerivedLiteralNotExpanded) {
  RelationId inner = Derived("inner", 1);
  Clause ci;
  ci.head_relation = inner;
  ci.num_vars = 2;
  ci.head_args = {Term::Var(0)};
  ci.body = {Literal::Relation(q_, {Term::Var(0), Term::Var(1)})};
  ASSERT_TRUE(engine_.registry.Define(inner, ci, engine_.db.catalog()).ok());
  RelationId outer = Derived("outer2", 1);
  Clause co;
  co.head_relation = outer;
  co.num_vars = 2;
  co.head_args = {Term::Var(0)};
  co.body = {Literal::Relation(r_, {Term::Var(0), Term::Var(1)}),
             Literal::Relation(inner, {Term::Var(0)}, /*negated=*/true)};
  ASSERT_TRUE(engine_.registry.Define(outer, co, engine_.db.catalog()).ok());

  auto expanded = engine_.registry.Expand(outer, {});
  ASSERT_TRUE(expanded.ok());
  bool saw_negated_inner = false;
  for (const Literal& lit : (*expanded)[0].body) {
    if (lit.kind == Literal::Kind::kRelation && lit.relation == inner) {
      EXPECT_TRUE(lit.negated);
      saw_negated_inner = true;
    }
  }
  EXPECT_TRUE(saw_negated_inner);
}

TEST_F(RegistryTest, DirectDependenciesDistinct) {
  RelationId v = Derived("v", 1);
  Clause c;
  c.head_relation = v;
  c.num_vars = 2;
  c.head_args = {Term::Var(0)};
  c.body = {Literal::Relation(q_, {Term::Var(0), Term::Var(1)}),
            Literal::Relation(q_, {Term::Var(1), Term::Var(0)}),
            Literal::Relation(r_, {Term::Var(0), Term::Var(1)})};
  ASSERT_TRUE(engine_.registry.Define(v, c, engine_.db.catalog()).ok());
  auto deps = DerivedRegistry::DirectDependencies(
      *engine_.registry.GetClauses(v));
  EXPECT_EQ(deps.size(), 2u);
}

}  // namespace
}  // namespace deltamon::objectlog
