/// Micro-benchmarks for the batch evaluation kernels: the same differenced
/// clause evaluated tuple-at-a-time (kernels=0) and set-at-a-time through
/// the columnar Δ-table + build–probe hash-join path (kernels=1), so the
/// A/B per row isolates the kernel speedup from everything above it.
/// Sweeps Δ-cardinality × extent cardinality (which flips the build/probe
/// cost choice), tuple width, and the semi-join pre-filter shape where
/// most Δ rows have no join partner. The |Δ| = 1 and 10 rows measure the
/// fixed cost per evaluation: like a propagation worker, every row keeps
/// one EvalCache (and with it the kernels' scratch) across iterations,
/// while the ad-hoc plan is still compiled each time.

#include <benchmark/benchmark.h>

#include <unordered_map>
#include <vector>

#include "bench_util/report.h"

#include "objectlog/eval.h"
#include "rules/engine.h"

namespace deltamon {
namespace {

using objectlog::Clause;
using objectlog::CompareOp;
using objectlog::EvalCache;
using objectlog::EvalState;
using objectlog::Evaluator;
using objectlog::Literal;
using objectlog::RelationRole;
using objectlog::StateContext;
using objectlog::Term;

ColumnType IntCol() { return ColumnType{ValueKind::kInt, kInvalidTypeId}; }

/// One Δ-join workload: Δ+q(X,K) ⋈ r(K,Z...) with `extent_rows` unique
/// keys in r and `delta_rows` Δ tuples hitting them round-robin. Arity
/// widens r and the head payload beyond the 2-column minimum.
struct JoinWorkload {
  Engine engine;
  std::unordered_map<RelationId, DeltaSet> deltas;
  Clause clause;
  /// Warm across iterations. The clause reads only stored relations, so
  /// it memoizes no extent; only the kernels' scratch carries over.
  EvalCache cache;

  JoinWorkload(int64_t delta_rows, int64_t extent_rows, int64_t arity,
               int64_t key_stride) {
    Catalog& cat = engine.db.catalog();
    RelationId q = *cat.CreateStoredFunction(
        "q", FunctionSignature{{IntCol()}, {IntCol()}});
    FunctionSignature rsig;
    rsig.argument_types.push_back(IntCol());
    for (int64_t c = 1; c < arity; ++c) rsig.result_types.push_back(IntCol());
    RelationId r = *cat.CreateStoredFunction("r", rsig);
    FunctionSignature psig;
    psig.argument_types.push_back(IntCol());
    for (int64_t c = 1; c < arity; ++c) psig.result_types.push_back(IntCol());
    RelationId p = *cat.CreateDerivedFunction("p", psig);

    for (int64_t k = 0; k < extent_rows; ++k) {
      Tuple t{Value(k * key_stride)};
      for (int64_t c = 1; c < arity; ++c) t.Append(Value(k * 31 + c));
      if (!engine.db.Insert(r, t).ok()) std::abort();
    }

    // p(X, Z1..Zn-1) <- Δ+q(X, K), r(K, Z1..Zn-1).
    clause.head_relation = p;
    clause.num_vars = static_cast<int>(arity) + 1;
    clause.head_args = {Term::Var(0)};
    std::vector<Term> rargs = {Term::Var(1)};
    for (int64_t c = 1; c < arity; ++c) {
      rargs.push_back(Term::Var(static_cast<int>(c) + 1));
      clause.head_args.push_back(Term::Var(static_cast<int>(c) + 1));
    }
    clause.body = {Literal::Relation(q, {Term::Var(0), Term::Var(1)}),
                   Literal::Relation(r, std::move(rargs))};
    clause.body[0].role = RelationRole::kDeltaPlus;
    clause.profile_label = "micro_join";

    TupleSet plus;
    for (int64_t i = 0; i < delta_rows; ++i) {
      plus.insert(Tuple{Value(i), Value((i % extent_rows) * key_stride)});
    }
    deltas.emplace(q, DeltaSet{std::move(plus), {}});
  }

  size_t Evaluate(bool kernels) {
    StateContext ctx;
    ctx.deltas = &deltas;
    Evaluator ev(engine.db, engine.registry, ctx, &cache);
    ev.EnableKernels(kernels);
    TupleSet out;
    if (!ev.EvaluateClause(clause, &out).ok()) std::abort();
    return out.size();
  }
};

/// Δ ⋈ extent with the cost model free to pick build or probe: small
/// extents against large Δ-sets take the build side (scan once, hash,
/// probe per Δ row); large extents against small Δ-sets take the probe
/// side (indexed point probes per distinct key).
void BM_DeltaJoin(benchmark::State& state) {
  JoinWorkload w(state.range(0), state.range(1), /*arity=*/2,
                 /*key_stride=*/1);
  const bool kernels = state.range(2) != 0;
  size_t rows = 0;
  for (auto _ : state) {
    rows = w.Evaluate(kernels);
    benchmark::DoNotOptimize(rows);
  }
  state.counters["rows_out"] = static_cast<double>(rows);
  state.SetItemsProcessed(state.iterations() * state.range(0));
}

/// 8-ary tuples: the columnar layout pays off most when wide rows would
/// otherwise be re-materialized per binding.
void BM_DeltaJoinWide(benchmark::State& state) {
  JoinWorkload w(state.range(0), /*extent_rows=*/4096, /*arity=*/8,
                 /*key_stride=*/1);
  const bool kernels = state.range(1) != 0;
  size_t rows = 0;
  for (auto _ : state) {
    rows = w.Evaluate(kernels);
    benchmark::DoNotOptimize(rows);
  }
  state.counters["rows_out"] = static_cast<double>(rows);
  state.SetItemsProcessed(state.iterations() * state.range(0));
}

/// The semi-join shape — p(X,Z) <- Δ+q(X,Y), Y < 95, r(X,Z) — where a
/// mostly-passing comparison sits between the Δ and the join and only 1
/// in 16 Δ rows has a join partner: the join is the selective step, so
/// the pre-filter pays off by existence-probing r per distinct X and
/// discarding partnerless Δ rows before any downstream work.
void BM_SemiJoinFilter(benchmark::State& state) {
  const int64_t delta_rows = state.range(0);
  // Extent keys are multiples of 16; Δ X-values are dense → 1/16 match.
  JoinWorkload w(delta_rows, /*extent_rows=*/delta_rows / 8 + 1,
                 /*arity=*/2, /*key_stride=*/16);
  // Rebuild Δ as (X dense, Y = X mod 100) and re-join r on X, so Y feeds
  // only the interposed comparison.
  RelationId q = w.clause.body[0].relation;
  TupleSet plus;
  for (int64_t i = 0; i < delta_rows; ++i) {
    plus.insert(Tuple{Value(i), Value(i % 100)});
  }
  w.deltas.at(q) = DeltaSet{std::move(plus), {}};
  w.clause.body[1].args[0] = Term::Var(0);
  w.clause.body.insert(
      w.clause.body.begin() + 1,
      Literal::Compare(CompareOp::kLt, Term::Var(1),
                       Term::Const(Value(95))));
  const bool kernels = state.range(1) != 0;
  size_t rows = 0;
  for (auto _ : state) {
    rows = w.Evaluate(kernels);
    benchmark::DoNotOptimize(rows);
  }
  state.counters["rows_out"] = static_cast<double>(rows);
  state.SetItemsProcessed(state.iterations() * delta_rows);
}

void JoinArgs(benchmark::internal::Benchmark* b) {
  b->ArgNames({"delta", "extent", "kernels"});
  for (int64_t delta : {int64_t{1}, int64_t{10}, int64_t{1000},
                        int64_t{100000}}) {
    for (int64_t extent : {int64_t{1000}, int64_t{100000}}) {
      for (int64_t kernels : {int64_t{0}, int64_t{1}}) {
        b->Args({delta, extent, kernels});
      }
    }
  }
}

void DeltaOnlyArgs(benchmark::internal::Benchmark* b) {
  b->ArgNames({"delta", "kernels"});
  for (int64_t delta : {int64_t{1}, int64_t{10}, int64_t{1000},
                        int64_t{100000}}) {
    for (int64_t kernels : {int64_t{0}, int64_t{1}}) {
      b->Args({delta, kernels});
    }
  }
}

}  // namespace
}  // namespace deltamon

BENCHMARK(deltamon::BM_DeltaJoin)->Apply(deltamon::JoinArgs);
BENCHMARK(deltamon::BM_DeltaJoinWide)->Apply(deltamon::DeltaOnlyArgs);
BENCHMARK(deltamon::BM_SemiJoinFilter)->Apply(deltamon::DeltaOnlyArgs);

DELTAMON_BENCH_MAIN("micro_join_kernels");
