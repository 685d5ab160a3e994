/// Foreign functions with user-defined differentials (paper §3's foreign
/// functions, §8's "incremental evaluation of foreign functions through
/// user defined differentials"): an external C++ table (a sensor feed)
/// participates in rule conditions; the user injects Δ-sets when the
/// external state changes and the calculus does the rest — including
/// old-state reconstruction by rolling the injected Δ back.

#include <map>

#include <gtest/gtest.h>

#include "objectlog/eval.h"
#include "rules/engine.h"

namespace deltamon::rules {
namespace {

using objectlog::Clause;
using objectlog::CompareOp;
using objectlog::EvalState;
using objectlog::Literal;
using objectlog::Term;

ColumnType IntCol() { return ColumnType{ValueKind::kInt, kInvalidTypeId}; }
Tuple T(int64_t a, int64_t b) { return Tuple{Value(a), Value(b)}; }

/// An external sensor table room -> temperature, living outside the DBMS.
class SensorWorld {
 public:
  /// Changes a reading and returns the user-defined differential.
  DeltaSet SetReading(int64_t room, int64_t temp) {
    DeltaSet delta;
    auto it = readings_.find(room);
    if (it != readings_.end()) {
      if (it->second == temp) return delta;
      delta.ApplyDelete(T(room, it->second));
    }
    delta.ApplyInsert(T(room, temp));
    readings_[room] = temp;
    return delta;
  }

  objectlog::ForeignImpl MakeImpl() const {
    return [this](const ScanPattern& pattern,
                  const std::function<bool(const Tuple&)>& emit) -> Status {
      // Exploit a bound room column; otherwise scan everything.
      if (!pattern.empty() && pattern[0].has_value() &&
          pattern[0]->is_int()) {
        auto it = readings_.find(pattern[0]->AsInt());
        if (it != readings_.end()) emit(T(it->first, it->second));
        return Status::OK();
      }
      for (const auto& [room, temp] : readings_) {
        if (!emit(T(room, temp))) break;
      }
      return Status::OK();
    };
  }

 private:
  std::map<int64_t, int64_t> readings_;
};

class ForeignFunctionTest : public ::testing::TestWithParam<MonitorMode> {
 protected:
  void SetUp() override {
    engine_.rules.SetMode(GetParam());
    Catalog& cat = engine_.db.catalog();
    auto temp = cat.CreateForeignFunction(
        "ambient_temp", FunctionSignature{{IntCol()}, {IntCol()}});
    ASSERT_TRUE(temp.ok());
    temp_ = *temp;
    ASSERT_TRUE(engine_.registry
                    .RegisterForeign(temp_, world_.MakeImpl(), cat)
                    .ok());
    limit_ = *cat.CreateStoredFunction(
        "temp_limit", FunctionSignature{{IntCol()}, {IntCol()}});
    cond_ = *cat.CreateDerivedFunction(
        "cnd_overheat", FunctionSignature{{}, {IntCol()}});
    Clause c;
    c.head_relation = cond_;
    c.num_vars = 3;
    c.head_args = {Term::Var(0)};
    c.body = {Literal::Relation(temp_, {Term::Var(0), Term::Var(1)}),
              Literal::Relation(limit_, {Term::Var(0), Term::Var(2)}),
              Literal::Compare(CompareOp::kGt, Term::Var(1), Term::Var(2))};
    ASSERT_TRUE(engine_.registry.Define(cond_, std::move(c), cat).ok());

    auto rule = engine_.rules.CreateRule(
        "overheat", cond_,
        [this](Database&, const Tuple&, const std::vector<Tuple>& rooms) {
          for (const Tuple& r : rooms) alerts_.push_back(r[0].AsInt());
          return Status::OK();
        });
    ASSERT_TRUE(rule.ok());
    ASSERT_TRUE(engine_.rules.Activate(*rule).ok());

    ASSERT_TRUE(engine_.db.Set(limit_, Tuple{Value(1)},
                               Tuple{Value(80)}).ok());
    ASSERT_TRUE(engine_.db.Set(limit_, Tuple{Value(2)},
                               Tuple{Value(70)}).ok());
    ASSERT_TRUE(engine_.db.Commit().ok());
  }

  /// Updates the external world and injects the differential.
  void Reading(int64_t room, int64_t temp) {
    DeltaSet delta = world_.SetReading(room, temp);
    ASSERT_TRUE(engine_.db.InjectForeignDelta(temp_, delta).ok());
  }

  Engine engine_;
  SensorWorld world_;
  RelationId temp_ = kInvalidRelationId;
  RelationId limit_ = kInvalidRelationId;
  RelationId cond_ = kInvalidRelationId;
  std::vector<int64_t> alerts_;
};

TEST_P(ForeignFunctionTest, InjectedDeltaTriggersRule) {
  Reading(1, 75);
  ASSERT_TRUE(engine_.db.Commit().ok());
  EXPECT_TRUE(alerts_.empty());  // 75 <= 80
  Reading(1, 95);
  ASSERT_TRUE(engine_.db.Commit().ok());
  EXPECT_EQ(alerts_, (std::vector<int64_t>{1}));
}

TEST_P(ForeignFunctionTest, StrictSemanticsAcrossInjections) {
  Reading(1, 95);
  ASSERT_TRUE(engine_.db.Commit().ok());
  ASSERT_EQ(alerts_.size(), 1u);
  // Hotter still: condition stays true, strict rule stays quiet.
  Reading(1, 99);
  ASSERT_TRUE(engine_.db.Commit().ok());
  EXPECT_EQ(alerts_.size(), 1u);
  // Cool down and overheat again: fires again.
  Reading(1, 60);
  ASSERT_TRUE(engine_.db.Commit().ok());
  Reading(1, 85);
  ASSERT_TRUE(engine_.db.Commit().ok());
  EXPECT_EQ(alerts_.size(), 2u);
}

TEST_P(ForeignFunctionTest, StoredSideChangesJoinAgainstForeignExtent) {
  Reading(2, 75);  // above room 2's limit of 70
  ASSERT_TRUE(engine_.db.Commit().ok());
  ASSERT_EQ(alerts_, (std::vector<int64_t>{2}));
  // Raising the limit and lowering it back triggers once more (the stored
  // side is an influent like any other).
  ASSERT_TRUE(engine_.db.Set(limit_, Tuple{Value(2)},
                             Tuple{Value(90)}).ok());
  ASSERT_TRUE(engine_.db.Commit().ok());
  ASSERT_TRUE(engine_.db.Set(limit_, Tuple{Value(2)},
                             Tuple{Value(70)}).ok());
  ASSERT_TRUE(engine_.db.Commit().ok());
  EXPECT_EQ(alerts_, (std::vector<int64_t>{2, 2}));
}

TEST_P(ForeignFunctionTest, NoNetChangeInjectionIsQuiet) {
  Reading(1, 95);
  Reading(1, 75);  // back below the limit before commit
  ASSERT_TRUE(engine_.db.Commit().ok());
  EXPECT_TRUE(alerts_.empty());
}

INSTANTIATE_TEST_SUITE_P(
    Modes, ForeignFunctionTest,
    ::testing::Values(MonitorMode::kIncremental, MonitorMode::kNaive,
                      MonitorMode::kHybrid),
    [](const ::testing::TestParamInfo<MonitorMode>& info) {
      switch (info.param) {
        case MonitorMode::kIncremental:
          return "Incremental";
        case MonitorMode::kNaive:
          return "Naive";
        case MonitorMode::kHybrid:
          return "Hybrid";
      }
      return "Unknown";
    });

TEST(ForeignFunctionErrorsTest, Registration) {
  Engine engine;
  Catalog& cat = engine.db.catalog();
  RelationId stored = *cat.CreateStoredFunction(
      "s", FunctionSignature{{IntCol()}, {IntCol()}});
  auto impl = [](const ScanPattern&,
                 const std::function<bool(const Tuple&)>&) {
    return Status::OK();
  };
  // Only foreign relations accept implementations.
  EXPECT_FALSE(engine.registry.RegisterForeign(stored, impl, cat).ok());
  RelationId foreign = *cat.CreateForeignFunction(
      "f", FunctionSignature{{IntCol()}, {IntCol()}});
  EXPECT_TRUE(engine.registry.RegisterForeign(foreign, impl, cat).ok());
  EXPECT_FALSE(engine.registry.RegisterForeign(foreign, impl, cat).ok());
  // Injecting into a non-foreign relation is rejected.
  EXPECT_FALSE(engine.db.InjectForeignDelta(stored, DeltaSet()).ok());
  // Injecting into an unmonitored foreign relation is a silent no-op.
  EXPECT_TRUE(engine.db.InjectForeignDelta(foreign, DeltaSet()).ok());
}

TEST(ActivationInfluentsTest, MonitorsTheStoredAndForeignLeavesOnly) {
  // cnd reads the foreign temp directly and the stored limit through the
  // derived limit_view: only the two leaves are monitored.
  Engine engine;
  Catalog& cat = engine.db.catalog();
  SensorWorld world;
  const FunctionSignature pair{{IntCol()}, {IntCol()}};
  RelationId temp = *cat.CreateForeignFunction("temp", pair);
  ASSERT_TRUE(engine.registry.RegisterForeign(temp, world.MakeImpl(), cat)
                  .ok());
  RelationId limit = *cat.CreateStoredFunction("limit", pair);
  RelationId unread = *cat.CreateStoredFunction("unread", pair);
  RelationId limit_view = *cat.CreateDerivedFunction("limit_view", pair);
  Clause view;
  view.head_relation = limit_view;
  view.num_vars = 2;
  view.head_args = {Term::Var(0), Term::Var(1)};
  view.body = {Literal::Relation(limit, {Term::Var(0), Term::Var(1)})};
  ASSERT_TRUE(engine.registry.Define(limit_view, std::move(view), cat).ok());
  RelationId cnd = *cat.CreateDerivedFunction(
      "cnd_hot", FunctionSignature{{}, {IntCol()}});
  Clause c;
  c.head_relation = cnd;
  c.num_vars = 3;
  c.head_args = {Term::Var(0)};
  c.body = {Literal::Relation(temp, {Term::Var(0), Term::Var(1)}),
            Literal::Relation(limit_view, {Term::Var(0), Term::Var(2)}),
            Literal::Compare(CompareOp::kGt, Term::Var(1), Term::Var(2))};
  ASSERT_TRUE(engine.registry.Define(cnd, std::move(c), cat).ok());

  auto rule = engine.rules.CreateRule(
      "hot", cnd,
      [](Database&, const Tuple&, const std::vector<Tuple>&) {
        return Status::OK();
      });
  ASSERT_TRUE(rule.ok());
  ASSERT_TRUE(engine.rules.Activate(*rule).ok());
  EXPECT_TRUE(engine.db.IsMonitored(temp));
  EXPECT_TRUE(engine.db.IsMonitored(limit));
  EXPECT_FALSE(engine.db.IsMonitored(limit_view));
  EXPECT_FALSE(engine.db.IsMonitored(cnd));
  EXPECT_FALSE(engine.db.IsMonitored(unread));
}

TEST(ActivationInfluentsTest, UndefinedDerivedRelationIsNotFound) {
  Engine engine;
  Catalog& cat = engine.db.catalog();
  const FunctionSignature pair{{IntCol()}, {IntCol()}};
  RelationId stored = *cat.CreateStoredFunction("s", pair);
  RelationId undefined = *cat.CreateDerivedFunction("undefined_view", pair);
  RelationId cnd = *cat.CreateDerivedFunction(
      "cnd_undefined", FunctionSignature{{}, {IntCol()}});
  Clause c;
  c.head_relation = cnd;
  c.num_vars = 2;
  c.head_args = {Term::Var(0)};
  c.body = {Literal::Relation(stored, {Term::Var(0), Term::Var(1)}),
            Literal::Relation(undefined, {Term::Var(0), Term::Var(1)})};
  ASSERT_TRUE(engine.registry.Define(cnd, std::move(c), cat).ok());

  auto rule = engine.rules.CreateRule(
      "undefined", cnd,
      [](Database&, const Tuple&, const std::vector<Tuple>&) {
        return Status::OK();
      });
  ASSERT_TRUE(rule.ok());
  EXPECT_EQ(engine.rules.Activate(*rule).code(), StatusCode::kNotFound);
}

TEST(ActivationInfluentsTest, ClauseDefinedAfterActivationIsMonitored) {
  // cnd(x) <- q(x, y), y > 5 is active when a second clause,
  // cnd(x) <- r(x, y), y > 5, is defined: the next check phase monitors r
  // and sees the transaction's write to it, in either monitoring mode.
  for (MonitorMode mode : {MonitorMode::kIncremental, MonitorMode::kNaive}) {
    Engine engine;
    engine.rules.SetMode(mode);
    Catalog& cat = engine.db.catalog();
    const FunctionSignature pair{{IntCol()}, {IntCol()}};
    RelationId q = *cat.CreateStoredFunction("q", pair);
    RelationId r = *cat.CreateStoredFunction("r", pair);
    RelationId cnd = *cat.CreateDerivedFunction(
        "cnd_over", FunctionSignature{{}, {IntCol()}});
    auto define_over_five = [&](RelationId read) {
      Clause c;
      c.head_relation = cnd;
      c.num_vars = 2;
      c.head_args = {Term::Var(0)};
      c.body = {Literal::Relation(read, {Term::Var(0), Term::Var(1)}),
                Literal::Compare(CompareOp::kGt, Term::Var(1),
                                 Term::Const(Value(int64_t{5})))};
      return engine.registry.Define(cnd, std::move(c), cat);
    };
    ASSERT_TRUE(define_over_five(q).ok());
    std::vector<Tuple> fired;
    auto rule = engine.rules.CreateRule(
        "over", cnd,
        [&fired](Database&, const Tuple&, const std::vector<Tuple>& items) {
          fired.insert(fired.end(), items.begin(), items.end());
          return Status::OK();
        });
    ASSERT_TRUE(rule.ok());
    ASSERT_TRUE(engine.rules.Activate(*rule).ok());
    ASSERT_TRUE(define_over_five(r).ok());

    ASSERT_TRUE(engine.db.Set(r, Tuple{Value(int64_t{1})},
                              Tuple{Value(int64_t{10})})
                    .ok());
    ASSERT_TRUE(engine.db.Commit().ok());
    EXPECT_TRUE(engine.db.IsMonitored(r));
    EXPECT_EQ(engine.rules.last_check().rule_firings, 1u);
    EXPECT_EQ(fired, std::vector<Tuple>{Tuple{Value(int64_t{1})}});
  }
}

TEST(ForeignFunctionEvalTest, OldStateByInjectedDeltaRollback) {
  Engine engine;
  Catalog& cat = engine.db.catalog();
  SensorWorld world;
  RelationId temp = *cat.CreateForeignFunction(
      "temp", FunctionSignature{{IntCol()}, {IntCol()}});
  ASSERT_TRUE(engine.registry.RegisterForeign(temp, world.MakeImpl(), cat)
                  .ok());
  world.SetReading(1, 50);
  DeltaSet delta = world.SetReading(1, 60);  // 50 -> 60

  std::unordered_map<RelationId, DeltaSet> deltas;
  deltas.emplace(temp, delta);
  objectlog::StateContext ctx;
  ctx.deltas = &deltas;
  objectlog::Evaluator ev(engine.db, engine.registry, ctx);
  TupleSet new_rows, old_rows;
  ASSERT_TRUE(ev.Evaluate(temp, EvalState::kNew, &new_rows).ok());
  ASSERT_TRUE(ev.Evaluate(temp, EvalState::kOld, &old_rows).ok());
  EXPECT_EQ(new_rows, (TupleSet{T(1, 60)}));
  EXPECT_EQ(old_rows, (TupleSet{T(1, 50)}));
}

TEST(ForeignFunctionEvalTest, OldStateProbeOnAnIgnoredColumn) {
  Engine engine;
  Catalog& cat = engine.db.catalog();
  SensorWorld world;
  RelationId temp = *cat.CreateForeignFunction(
      "temp", FunctionSignature{{IntCol()}, {IntCol()}});
  ASSERT_TRUE(engine.registry.RegisterForeign(temp, world.MakeImpl(), cat)
                  .ok());
  world.SetReading(1, 50);
  world.SetReading(2, 60);
  world.SetReading(3, 60);
  world.SetReading(4, 80);
  DeltaSet delta = world.SetReading(1, 60);  // 50 -> 60
  delta.DeltaUnion(world.SetReading(3, 75));  // 60 -> 75

  std::unordered_map<RelationId, DeltaSet> deltas;
  deltas.emplace(temp, delta);
  objectlog::StateContext ctx;
  ctx.deltas = &deltas;
  objectlog::Evaluator ev(engine.db, engine.registry, ctx);
  // Only the temperature is bound, and the implementation only exploits a
  // bound room: it hands over every reading, matching or not.
  const ScanPattern at_60 = {std::nullopt, Value(60)};
  TupleSet old_rows, new_rows;
  ASSERT_TRUE(ev.Probe(temp, EvalState::kOld, at_60, &old_rows).ok());
  ASSERT_TRUE(ev.Probe(temp, EvalState::kNew, at_60, &new_rows).ok());
  EXPECT_EQ(old_rows, (TupleSet{T(2, 60), T(3, 60)}));
  EXPECT_EQ(new_rows, (TupleSet{T(1, 60), T(2, 60)}));
}

TEST(ForeignFunctionEvalTest, FailureMidOldScanEmitsNoRolledBackRow) {
  Engine engine;
  Catalog& cat = engine.db.catalog();
  RelationId temp = *cat.CreateForeignFunction(
      "temp", FunctionSignature{{IntCol()}, {IntCol()}});
  // A feed that drops after two readings.
  auto flaky = [](const ScanPattern&,
                  const std::function<bool(const Tuple&)>& emit) {
    emit(T(1, 60));
    emit(T(2, 60));
    return Status::Internal("sensor feed dropped");
  };
  ASSERT_TRUE(engine.registry.RegisterForeign(temp, flaky, cat).ok());

  // Room 1 went 50 -> 60, so the OLD state rolls (1, 50) back in.
  std::unordered_map<RelationId, DeltaSet> deltas;
  deltas.emplace(temp, DeltaSet({T(1, 60)}, {T(1, 50)}));
  objectlog::StateContext ctx;
  ctx.deltas = &deltas;
  objectlog::Evaluator ev(engine.db, engine.registry, ctx);
  TupleSet rows;
  Status status = ev.Probe(temp, EvalState::kOld, ScanPattern{}, &rows);
  EXPECT_EQ(status.code(), StatusCode::kInternal);
  EXPECT_EQ(rows, (TupleSet{T(2, 60)}));
}

}  // namespace
}  // namespace deltamon::rules
