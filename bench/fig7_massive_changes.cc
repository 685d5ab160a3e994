/// Reproduces fig. 7 of the paper: one transaction that changes the
/// quantity, the delivery time, and the consume frequency of ALL n items,
/// affecting three of the five partial differentials at once.
///
/// Expected shape (paper §6.2): here naive monitoring wins — the three
/// differentials overlap in the work they redo — but only by a roughly
/// constant factor over the database size (the paper measured ~1.6×).

#include <benchmark/benchmark.h>

#include "bench_util/report.h"

#include "bench_util/inventory.h"

namespace deltamon {
namespace {

using rules::MonitorMode;
using workload::FleetSetup;
using workload::InventorySchema;
using workload::MonitorSetup;
using workload::SetupMonitorFleet;
using workload::SetupMonitorItems;

/// One fig. 7 transaction: 3n updates touching quantity, delivery_time and
/// consume_freq of every item (values stay on the quiet side of the
/// threshold so we time monitoring, not rule firing).
void RunMassiveTransaction(Engine& engine, const InventorySchema& schema,
                           int64_t round) {
  for (size_t i = 0; i < schema.items.size(); ++i) {
    if (!engine.db
             .Set(schema.quantity, Tuple{Value(schema.items[i])},
                  Tuple{Value(900 + round)})
             .ok() ||
        !engine.db
             .Set(schema.delivery_time,
                  Tuple{Value(schema.items[i]), Value(schema.suppliers[i])},
                  Tuple{Value(2 + (round % 2))})
             .ok() ||
        !engine.db
             .Set(schema.consume_freq, Tuple{Value(schema.items[i])},
                  Tuple{Value(20 + (round % 2))})
             .ok()) {
      std::abort();
    }
  }
  if (!engine.db.Commit().ok()) std::abort();
}

template <MonitorMode kMode>
void BM_Fig7(benchmark::State& state, bool kernels = true,
             bool provenance = false) {
  auto setup = SetupMonitorItems(static_cast<size_t>(state.range(0)), kMode);
  if (!setup.ok()) {
    state.SkipWithError(setup.status().ToString().c_str());
    return;
  }
  (*setup)->engine->rules.SetKernelsEnabled(kernels);
  (*setup)->engine->rules.SetProvenanceEnabled(provenance);
  if (bench::ThreadsArg() > 0) {
    (*setup)->engine->rules.SetNumThreads(
        static_cast<size_t>(bench::ThreadsArg()));
  }
  int64_t round = 0;
  for (auto _ : state) {
    RunMassiveTransaction(*(*setup)->engine, (*setup)->schema, round++);
  }
  (*setup)->engine->rules.SetProvenanceEnabled(false);
  state.counters["items"] = static_cast<double>(state.range(0));
  state.counters["updates_per_tx"] = static_cast<double>(3 * state.range(0));
}

/// Level-synchronous parallel propagation over a fleet of independent
/// monitor rules (one condition relation each, so the network has a
/// `rules`-wide level of root nodes). Sweep args: (items, rules, threads);
/// the threads=1 row is the serial baseline for the speedup claim in
/// docs/parallelism.md. `--threads=N` pins every row to N.
void BM_Fig7_Fleet(benchmark::State& state, bool kernels) {
  const auto items = static_cast<size_t>(state.range(0));
  const auto num_rules = static_cast<size_t>(state.range(1));
  size_t threads = static_cast<size_t>(state.range(2));
  if (bench::ThreadsArg() > 0) {
    threads = static_cast<size_t>(bench::ThreadsArg());
  }
  auto setup = SetupMonitorFleet(items, num_rules, MonitorMode::kIncremental);
  if (!setup.ok()) {
    state.SkipWithError(setup.status().ToString().c_str());
    return;
  }
  (*setup)->engine->rules.SetKernelsEnabled(kernels);
  (*setup)->engine->rules.SetNumThreads(threads);
  int64_t round = 0;
  for (auto _ : state) {
    RunMassiveTransaction(*(*setup)->engine, (*setup)->schema, round++);
  }
  state.counters["items"] = static_cast<double>(items);
  state.counters["rules"] = static_cast<double>(num_rules);
  state.counters["threads"] = static_cast<double>(threads);
  state.counters["updates_per_tx"] = static_cast<double>(3 * state.range(0));
}

void BM_Fig7_Incremental(benchmark::State& state) {
  BM_Fig7<MonitorMode::kIncremental>(state);
}
/// Ablation for the batch kernels: the same Δ-heavy waves forced through
/// the tuple-at-a-time interpreter. The gap to BM_Fig7_Incremental is the
/// kernel speedup end to end.
void BM_Fig7_IncrementalNoKernels(benchmark::State& state) {
  BM_Fig7<MonitorMode::kIncremental>(state, /*kernels=*/false);
}
/// `set provenance on;` over the same waves: lineage capture on a 3n-row
/// Δ-set (|Δ| = 30 000 at 10 000 items). The gap to BM_Fig7_Incremental
/// is the price of row-level provenance; no rule fires, so it is the
/// propagation-side lineage bookkeeping alone.
void BM_Fig7_IncrementalProvenance(benchmark::State& state) {
  BM_Fig7<MonitorMode::kIncremental>(state, /*kernels=*/true,
                                     /*provenance=*/true);
}
void BM_Fig7_IncrementalProvenanceNoKernels(benchmark::State& state) {
  BM_Fig7<MonitorMode::kIncremental>(state, /*kernels=*/false,
                                     /*provenance=*/true);
}
void BM_Fig7_Naive(benchmark::State& state) {
  BM_Fig7<MonitorMode::kNaive>(state);
}
void BM_Fig7_Hybrid(benchmark::State& state) {
  // §8 extension: the hybrid monitor should pick the naive path here.
  BM_Fig7<MonitorMode::kHybrid>(state);
}
/// Kernels ablation for the fleet: 8 rules × 1000-item Δs is the most
/// Δ-heavy shape in the suite, so the interpreter-vs-kernel gap is widest
/// here.
void BM_Fig7_ParallelFleet(benchmark::State& state) {
  BM_Fig7_Fleet(state, /*kernels=*/true);
}
void BM_Fig7_ParallelFleetNoKernels(benchmark::State& state) {
  BM_Fig7_Fleet(state, /*kernels=*/false);
}

}  // namespace
}  // namespace deltamon

BENCHMARK(deltamon::BM_Fig7_Incremental)
    ->RangeMultiplier(10)
    ->Range(10, 10000)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(deltamon::BM_Fig7_IncrementalNoKernels)
    ->RangeMultiplier(10)
    ->Range(10, 10000)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(deltamon::BM_Fig7_IncrementalProvenance)
    ->RangeMultiplier(10)
    ->Range(10, 10000)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(deltamon::BM_Fig7_IncrementalProvenanceNoKernels)
    ->RangeMultiplier(10)
    ->Range(10, 10000)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(deltamon::BM_Fig7_Naive)
    ->RangeMultiplier(10)
    ->Range(10, 10000)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(deltamon::BM_Fig7_Hybrid)
    ->RangeMultiplier(10)
    ->Range(10, 10000)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(deltamon::BM_Fig7_ParallelFleet)
    ->ArgNames({"items", "rules", "threads"})
    ->Args({1000, 8, 1})
    ->Args({1000, 8, 2})
    ->Args({1000, 8, 4})
    ->Args({1000, 8, 8})
    ->Unit(benchmark::kMillisecond);
BENCHMARK(deltamon::BM_Fig7_ParallelFleetNoKernels)
    ->ArgNames({"items", "rules", "threads"})
    ->Args({1000, 8, 1})
    ->Args({1000, 8, 8})
    ->Unit(benchmark::kMillisecond);

DELTAMON_BENCH_MAIN("fig7_massive_changes");
