#include "core/lineage.h"

#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/thread_pool.h"
#include "core/network.h"
#include "core/propagator.h"
#include "obs/metrics.h"
#include "rules/engine.h"
#include "storage/catalog.h"

namespace deltamon::core {
namespace {

using objectlog::AggregateDef;
using objectlog::Clause;
using objectlog::CompareOp;
using objectlog::Literal;
using objectlog::Term;

ColumnType IntCol() { return ColumnType{ValueKind::kInt, kInvalidTypeId}; }

Tuple T(int64_t a) { return Tuple{Value(a)}; }
Tuple T(int64_t a, int64_t b) { return Tuple{Value(a), Value(b)}; }

/// Two base relations feeding one derived relation — enough topology to
/// exercise every Export shape.
class LineageTest : public ::testing::Test {
 protected:
  LineageTest() {
    q_ = *catalog_.CreateStoredFunction(
        "q", FunctionSignature{{IntCol()}, {IntCol()}});
    r_ = *catalog_.CreateStoredFunction(
        "r", FunctionSignature{{IntCol()}, {IntCol()}});
    cnd_ = *catalog_.CreateDerivedFunction(
        "cnd", FunctionSignature{{}, {IntCol()}});
  }

  Catalog catalog_;
  RelationId q_ = kInvalidRelationId;
  RelationId r_ = kInvalidRelationId;
  RelationId cnd_ = kInvalidRelationId;
};

TEST_F(LineageTest, FindReturnsNullUntilRecorded) {
  WaveLineage lineage;
  EXPECT_TRUE(lineage.empty());
  EXPECT_EQ(lineage.Find(q_, true, T(1, 2)), nullptr);
  lineage.AddBase(q_, true, T(1, 2));
  ASSERT_NE(lineage.Find(q_, true, T(1, 2)), nullptr);
  EXPECT_TRUE(lineage.Find(q_, true, T(1, 2))->base);
  // The polarity is part of the key: Δ− of the same row is a different
  // Δ-tuple.
  EXPECT_EQ(lineage.Find(q_, false, T(1, 2)), nullptr);
}

TEST_F(LineageTest, AddParentDropsExactDuplicates) {
  WaveLineage lineage;
  WaveLineage::Parent parent{q_, true, T(1, 2), "Δcnd/Δ+q"};
  lineage.AddParent(cnd_, true, T(1), parent);
  lineage.AddParent(cnd_, true, T(1), parent);
  ASSERT_NE(lineage.Find(cnd_, true, T(1)), nullptr);
  EXPECT_EQ(lineage.Find(cnd_, true, T(1))->parents.size(), 1u);
  // Same row via a different differential is a distinct derivation edge.
  lineage.AddParent(cnd_, true, T(1),
                    WaveLineage::Parent{q_, true, T(1, 2), "Δcnd/Δ+r"});
  EXPECT_EQ(lineage.Find(cnd_, true, T(1))->parents.size(), 2u);
}

TEST_F(LineageTest, MergeUnionsEntriesAndDedupesParents) {
  WaveLineage a;
  a.AddParent(cnd_, true, T(1),
              WaveLineage::Parent{q_, true, T(1, 2), "Δcnd/Δ+q"});
  WaveLineage b;
  b.AddParent(cnd_, true, T(1),
              WaveLineage::Parent{q_, true, T(1, 2), "Δcnd/Δ+q"});
  b.AddParent(cnd_, true, T(1),
              WaveLineage::Parent{r_, true, T(1, 3), "Δcnd/Δ+r"});
  b.AddBase(q_, true, T(1, 2));
  a.Merge(std::move(b));
  ASSERT_NE(a.Find(cnd_, true, T(1)), nullptr);
  EXPECT_EQ(a.Find(cnd_, true, T(1))->parents.size(), 2u);
  ASSERT_NE(a.Find(q_, true, T(1, 2)), nullptr);
  EXPECT_TRUE(a.Find(q_, true, T(1, 2))->base);
  EXPECT_EQ(a.size(), 2u);
}

TEST_F(LineageTest, MergePreservesBaseFlagOfExistingEntry) {
  WaveLineage a;
  a.AddBase(q_, true, T(1, 2));
  WaveLineage b;
  b.AddParent(q_, true, T(1, 2),
              WaveLineage::Parent{r_, true, T(9, 9), "Δq/Δ+r"});
  a.Merge(std::move(b));
  ASSERT_NE(a.Find(q_, true, T(1, 2)), nullptr);
  EXPECT_TRUE(a.Find(q_, true, T(1, 2))->base);
  EXPECT_EQ(a.Find(q_, true, T(1, 2))->parents.size(), 1u);
}

TEST_F(LineageTest, ExportRendersBaseLeafAndSortsChildren) {
  WaveLineage lineage;
  lineage.AddBase(q_, true, T(1, 2));
  lineage.AddBase(r_, false, T(1, 3));
  // Insert children in anti-sorted order; Export must reorder by
  // (via, relation name, polarity, row rendering).
  lineage.AddParent(cnd_, true, T(1),
                    WaveLineage::Parent{r_, false, T(1, 3), "Δcnd/Δ-r"});
  lineage.AddParent(cnd_, true, T(1),
                    WaveLineage::Parent{q_, true, T(1, 2), "Δcnd/Δ+q"});

  obs::Json tree = lineage.Export(cnd_, true, T(1), catalog_);
  EXPECT_EQ(tree.Get("relation")->as_string(), "cnd");
  EXPECT_EQ(tree.Get("polarity")->as_string(), "+");
  EXPECT_EQ(tree.Get("row")->as_string(), T(1).ToString());
  EXPECT_FALSE(tree.contains("base"));
  const obs::Json* inputs = tree.Get("inputs");
  ASSERT_NE(inputs, nullptr);
  ASSERT_EQ(inputs->array_items().size(), 2u);
  const obs::Json& first = inputs->at(0);
  const obs::Json& second = inputs->at(1);
  EXPECT_EQ(first.Get("via")->as_string(), "Δcnd/Δ+q");
  EXPECT_EQ(first.Get("relation")->as_string(), "q");
  EXPECT_TRUE(first.Get("base")->as_bool());
  EXPECT_FALSE(first.contains("inputs"));
  EXPECT_EQ(second.Get("via")->as_string(), "Δcnd/Δ-r");
  EXPECT_EQ(second.Get("polarity")->as_string(), "-");
  EXPECT_TRUE(second.Get("base")->as_bool());
}

TEST_F(LineageTest, ExportMarksRowsOutsideTheCaptureAsUnknown) {
  WaveLineage lineage;
  lineage.AddParent(cnd_, true, T(1),
                    WaveLineage::Parent{q_, true, T(1, 2), "Δcnd/Δ+q"});
  obs::Json tree = lineage.Export(cnd_, true, T(1), catalog_);
  const obs::Json* inputs = tree.Get("inputs");
  ASSERT_NE(inputs, nullptr);
  ASSERT_EQ(inputs->array_items().size(), 1u);
  // q's Δ-row was never recorded (capture switched on mid-stream): the
  // child is a truthful dead end, not a fabricated leaf.
  EXPECT_TRUE(inputs->at(0).Get("unknown")->as_bool());
  EXPECT_FALSE(inputs->at(0).contains("base"));

  obs::Json miss = lineage.Export(cnd_, false, T(1), catalog_);
  EXPECT_TRUE(miss.Get("unknown")->as_bool());
}

TEST_F(LineageTest, ExportCutsSelfEdgeCycles) {
  // Recursive rules re-derive their own rows: cnd(1) via cnd(1).
  WaveLineage lineage;
  lineage.AddParent(cnd_, true, T(1),
                    WaveLineage::Parent{cnd_, true, T(1), "Δcnd/Δ+cnd"});
  obs::Json tree = lineage.Export(cnd_, true, T(1), catalog_);
  const obs::Json* inputs = tree.Get("inputs");
  ASSERT_NE(inputs, nullptr);
  ASSERT_EQ(inputs->array_items().size(), 1u);
  EXPECT_TRUE(inputs->at(0).Get("truncated")->as_bool());
  EXPECT_FALSE(inputs->at(0).contains("inputs"));
}

TEST_F(LineageTest, ExportHonoursTheDepthCap) {
  // A chain cnd(0) <- cnd(1) <- ... <- cnd(9), exported with max_depth 3.
  WaveLineage lineage;
  for (int i = 0; i < 9; ++i) {
    lineage.AddParent(
        cnd_, true, T(i),
        WaveLineage::Parent{cnd_, true, T(i + 1), "Δcnd/Δ+cnd"});
  }
  obs::Json tree = lineage.Export(cnd_, true, T(0), catalog_, 3);
  int depth = 0;
  const obs::Json* node = &tree;
  while (node->contains("inputs")) {
    node = &node->Get("inputs")->at(0);
    ++depth;
  }
  EXPECT_EQ(depth, 3);
  EXPECT_TRUE(node->Get("truncated")->as_bool());
}

/// ---------------------------------------------------------------------
/// Lineage captured by propagation, through the network shapes the fuzz
/// scenario never builds: a recursive node's self-edge differential and an
/// aggregate edge. Every (threads, kernels) variant must export the same
/// pinned trees.

struct Variant {
  size_t threads;
  bool kernels;
};
constexpr Variant kVariants[] = {{1, true}, {1, false}, {4, true}, {4, false}};

std::string VariantName(const Variant& v) {
  return std::to_string(v.threads) + " threads, kernels " +
         (v.kernels ? "on" : "off");
}

/// One lineage-capturing wave over the pending Δ-sets; returns the
/// exported lineage tree of every root Δ-row, in sorted row order.
std::string ExportRootLineage(Engine& engine, const PropagationNetwork& net,
                              RelationId root, const Variant& v) {
  common::ThreadPool pool(v.threads);
  PropagationOptions options;
  options.pool = &pool;
  options.kernels = v.kernels;
  options.lineage = true;
  Propagator propagator(engine.db, engine.registry, net, nullptr, options);
  auto result = propagator.Propagate(engine.db.PendingDeltas());
  EXPECT_TRUE(result.ok()) << result.status().ToString();
  if (!result.ok()) return std::string();
  const DeltaSet& delta = result->root_deltas.at(root);
  std::string out;
  for (bool plus : {true, false}) {
    for (const Tuple& t : SortedTuples(plus ? delta.plus() : delta.minus())) {
      out += result->lineage.Export(root, plus, t, engine.db.catalog()).Dump();
      out += "\n";
    }
  }
  return out;
}

TEST(PropagatedLineageTest, SelfEdgeDerivationsInATransitiveClosure) {
  // tc(x,y) <- edge(x,y) | edge(x,z), tc(z,y). With 1->2 and 3->4 in
  // place, inserting 2->3 derives tc(2,3) from the base clause, tc(2,4)
  // from the step clause's Δ+edge differential, and tc(1,3) / tc(1,4) only
  // through the recursive self-edge Δ+tc/Δ+tc in the fixpoint.
  Engine engine;
  Catalog& cat = engine.db.catalog();
  RelationId edge = *cat.CreateStoredFunction(
      "edge", FunctionSignature{{IntCol()}, {IntCol()}});
  RelationId tc = *cat.CreateDerivedFunction(
      "tc", FunctionSignature{{}, {IntCol(), IntCol()}});
  Clause base;
  base.head_relation = tc;
  base.num_vars = 2;
  base.head_args = {Term::Var(0), Term::Var(1)};
  base.body = {Literal::Relation(edge, {Term::Var(0), Term::Var(1)})};
  ASSERT_TRUE(engine.registry.Define(tc, std::move(base), cat).ok());
  Clause step;
  step.head_relation = tc;
  step.num_vars = 3;
  step.head_args = {Term::Var(0), Term::Var(2)};
  step.body = {Literal::Relation(edge, {Term::Var(0), Term::Var(1)}),
               Literal::Relation(tc, {Term::Var(1), Term::Var(2)})};
  ASSERT_TRUE(engine.registry.Define(tc, std::move(step), cat).ok());
  engine.db.MarkMonitored(edge);
  ASSERT_TRUE(engine.db.Insert(edge, T(1, 2)).ok());
  ASSERT_TRUE(engine.db.Insert(edge, T(3, 4)).ok());
  ASSERT_TRUE(engine.db.Commit().ok());
  ASSERT_TRUE(engine.db.Insert(edge, T(2, 3)).ok());

  auto net = PropagationNetwork::Build({RootSpec{tc, true, true}},
                                       engine.registry, cat);
  ASSERT_TRUE(net.ok()) << net.status().ToString();
  const std::string expected = R"json({
  "relation": "tc",
  "polarity": "+",
  "row": "(1, 3)",
  "inputs": [
    {
      "relation": "tc",
      "polarity": "+",
      "row": "(2, 3)",
      "inputs": [
        {
          "relation": "edge",
          "polarity": "+",
          "row": "(2, 3)",
          "base": true,
          "via": "Δ+tc/Δ+edge"
        }
      ],
      "via": "Δ+tc/Δ+tc"
    }
  ]
}

{
  "relation": "tc",
  "polarity": "+",
  "row": "(1, 4)",
  "inputs": [
    {
      "relation": "tc",
      "polarity": "+",
      "row": "(2, 4)",
      "inputs": [
        {
          "relation": "edge",
          "polarity": "+",
          "row": "(2, 3)",
          "base": true,
          "via": "Δ+tc/Δ+edge"
        }
      ],
      "via": "Δ+tc/Δ+tc"
    }
  ]
}

{
  "relation": "tc",
  "polarity": "+",
  "row": "(2, 3)",
  "inputs": [
    {
      "relation": "edge",
      "polarity": "+",
      "row": "(2, 3)",
      "base": true,
      "via": "Δ+tc/Δ+edge"
    }
  ]
}

{
  "relation": "tc",
  "polarity": "+",
  "row": "(2, 4)",
  "inputs": [
    {
      "relation": "edge",
      "polarity": "+",
      "row": "(2, 3)",
      "base": true,
      "via": "Δ+tc/Δ+edge"
    }
  ]
}

)json";
  for (const Variant& v : kVariants) {
    EXPECT_EQ(ExportRootLineage(engine, *net, tc, v), expected)
        << VariantName(v);
  }
}

TEST(PropagatedLineageTest, AggregateGroupDescendsFromAllItsSourceRows) {
  // big(d,s) <- desk_sums(d,s), s > 100 over desk_sums = SUM(trades) by
  // desk. One wave changes desk 1 through three source Δ-rows (two
  // insertions, one deletion) and desk 2 through one: the crossing group
  // must list exactly desk 1's three rows as its inputs.
  Engine engine;
  Catalog& cat = engine.db.catalog();
  RelationId trades = *cat.CreateStoredFunction(
      "trades", FunctionSignature{{IntCol()}, {IntCol()}});
  RelationId sums = *cat.CreateDerivedFunction(
      "desk_sums", FunctionSignature{{}, {IntCol(), IntCol()}});
  AggregateDef def;
  def.source = trades;
  def.group_by = {0};
  def.value_column = 1;
  def.func = AggregateDef::Func::kSum;
  ASSERT_TRUE(engine.registry.DefineAggregate(sums, std::move(def), cat).ok());
  RelationId big = *cat.CreateDerivedFunction(
      "big", FunctionSignature{{}, {IntCol(), IntCol()}});
  Clause c;
  c.head_relation = big;
  c.num_vars = 2;
  c.head_args = {Term::Var(0), Term::Var(1)};
  c.body = {Literal::Relation(sums, {Term::Var(0), Term::Var(1)}),
            Literal::Compare(CompareOp::kGt, Term::Var(1),
                             Term::Const(Value(int64_t{100})))};
  ASSERT_TRUE(engine.registry.Define(big, std::move(c), cat).ok());
  engine.db.MarkMonitored(trades);
  ASSERT_TRUE(engine.db.Insert(trades, T(1, 20)).ok());
  ASSERT_TRUE(engine.db.Insert(trades, T(2, 5)).ok());
  ASSERT_TRUE(engine.db.Commit().ok());
  ASSERT_TRUE(engine.db.Insert(trades, T(1, 40)).ok());
  ASSERT_TRUE(engine.db.Insert(trades, T(1, 70)).ok());
  ASSERT_TRUE(engine.db.Delete(trades, T(1, 20)).ok());
  ASSERT_TRUE(engine.db.Insert(trades, T(2, 10)).ok());

  auto net = PropagationNetwork::Build({RootSpec{big, true, true}},
                                       engine.registry, cat);
  ASSERT_TRUE(net.ok()) << net.status().ToString();
  const std::string expected = R"json({
  "relation": "big",
  "polarity": "+",
  "row": "(1, 110)",
  "inputs": [
    {
      "relation": "desk_sums",
      "polarity": "+",
      "row": "(1, 110)",
      "inputs": [
        {
          "relation": "trades",
          "polarity": "+",
          "row": "(1, 40)",
          "base": true,
          "via": "Δdesk_sums/Δtrades [aggregate]"
        },
        {
          "relation": "trades",
          "polarity": "+",
          "row": "(1, 70)",
          "base": true,
          "via": "Δdesk_sums/Δtrades [aggregate]"
        },
        {
          "relation": "trades",
          "polarity": "-",
          "row": "(1, 20)",
          "base": true,
          "via": "Δdesk_sums/Δtrades [aggregate]"
        }
      ],
      "via": "Δ+big/Δ+desk_sums"
    }
  ]
}

)json";
  for (const Variant& v : kVariants) {
    EXPECT_EQ(ExportRootLineage(engine, *net, big, v), expected)
        << VariantName(v);
  }
}

TEST(PropagatedLineageTest, EachDifferentialEvaluatesOnceWithLineageOn) {
  // cnd(x,z) <- q(x,y), r(y,z) over a wave that inserts several rows into
  // both influents. Capturing lineage must not re-run a differential per
  // influent row: the wave evaluates exactly as many clauses as it does
  // with lineage off — one per executed differential (insertions into a
  // non-strict root run no §7.2 filter).
  Engine engine;
  Catalog& cat = engine.db.catalog();
  RelationId q = *cat.CreateStoredFunction(
      "q", FunctionSignature{{IntCol()}, {IntCol()}});
  RelationId r = *cat.CreateStoredFunction(
      "r", FunctionSignature{{IntCol()}, {IntCol()}});
  RelationId cnd = *cat.CreateDerivedFunction(
      "cnd", FunctionSignature{{}, {IntCol(), IntCol()}});
  Clause c;
  c.head_relation = cnd;
  c.num_vars = 3;
  c.head_args = {Term::Var(0), Term::Var(2)};
  c.body = {Literal::Relation(q, {Term::Var(0), Term::Var(1)}),
            Literal::Relation(r, {Term::Var(1), Term::Var(2)})};
  ASSERT_TRUE(engine.registry.Define(cnd, std::move(c), cat).ok());
  engine.db.MarkMonitored(q);
  engine.db.MarkMonitored(r);
  for (int64_t i = 0; i < 8; ++i) {
    ASSERT_TRUE(engine.db.Insert(q, T(i, i % 3)).ok());
    ASSERT_TRUE(engine.db.Insert(r, T(i % 3, 100 + i)).ok());
  }
  auto net = PropagationNetwork::Build(
      {RootSpec{cnd, /*needs_minus=*/false, /*strict=*/false}},
      engine.registry, cat);
  ASSERT_TRUE(net.ok()) << net.status().ToString();
  const auto deltas = engine.db.PendingDeltas();

  for (bool kernels : {true, false}) {
    SCOPED_TRACE(std::string("kernels ") + (kernels ? "on" : "off"));
    uint64_t evals[2] = {0, 0};
    DeltaSet roots[2];
    for (bool lineage : {false, true}) {
      PropagationOptions options;
      options.kernels = kernels;
      options.lineage = lineage;
      Propagator propagator(engine.db, engine.registry, *net, nullptr,
                            options);
      obs::Counter* counter =
          obs::Registry::Global().GetCounter("eval.clause_evals");
      const uint64_t before = counter->value();
      auto result = propagator.Propagate(deltas);
      ASSERT_TRUE(result.ok()) << result.status().ToString();
      evals[lineage] = counter->value() - before;
      roots[lineage] = result->root_deltas.at(cnd);
      EXPECT_EQ(result->stats.differentials_executed, 2u);
      EXPECT_EQ(result->lineage.empty(), !lineage);
    }
    EXPECT_EQ(roots[true], roots[false]);
    EXPECT_EQ(roots[true].plus().size(), 22u);
#if DELTAMON_OBS_ENABLED
    EXPECT_EQ(evals[true], evals[false]);
    EXPECT_EQ(evals[true], 2u);
#else
    (void)evals;
#endif
  }
}

}  // namespace
}  // namespace deltamon::core
