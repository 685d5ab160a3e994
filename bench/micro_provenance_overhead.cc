/// Microbenchmarks for firing provenance and wave capture: the commit
/// path with both recorders off (the ordinary-transaction budget — one
/// relaxed flag load each), with lineage capture armed (lineage edges
/// from each differential's one evaluation plus ring appends), and with
/// wave capture armed (Δ-set snapshots per round). CI diffs the *Off
/// variants against the committed baseline report-only; the On variants
/// document the price of `set provenance on;` / `set wave_capture on;`
/// rather than gate it.

#include <benchmark/benchmark.h>

#include "bench_util/inventory.h"
#include "bench_util/report.h"
#include "core/lineage.h"
#include "obs/provenance.h"
#include "obs/wave_recorder.h"

namespace deltamon {
namespace {

void RunCommits(benchmark::State& state, bool provenance, bool waves) {
  auto setup = workload::SetupMonitorItems(
      static_cast<size_t>(state.range(0)), rules::MonitorMode::kIncremental);
  if (!setup.ok()) {
    state.SkipWithError(setup.status().ToString().c_str());
    return;
  }
  Engine& engine = *(*setup)->engine;
  const workload::InventorySchema& schema = (*setup)->schema;
  engine.rules.SetProvenanceEnabled(provenance);
  engine.rules.SetWaveCaptureEnabled(waves);
  int64_t round = 0;
  for (auto _ : state) {
    for (int tx = 0; tx < 100; ++tx, ++round) {
      Oid item = schema.items[static_cast<size_t>(round) % schema.items.size()];
      benchmark::DoNotOptimize(
          workload::SetFn(engine, schema.quantity, item, 900 + (round % 89)));
      if (!engine.db.Commit().ok()) std::abort();
    }
  }
  engine.rules.SetProvenanceEnabled(false);
  engine.rules.SetWaveCaptureEnabled(false);
  obs::GlobalProvenanceLog().Clear();
  obs::GlobalWaveRecorder().Clear();
  state.counters["items"] = static_cast<double>(state.range(0));
  state.counters["txs"] = 100;
}

/// The lineage-off hot path: what every transaction pays for the
/// provenance machinery's existence. Must track BM_Fig6ProfilerDisabled.
void BM_CommitProvenanceOff(benchmark::State& state) {
  RunCommits(state, /*provenance=*/false, /*waves=*/false);
}
BENCHMARK(BM_CommitProvenanceOff)->Arg(100)->Arg(1000);

/// `set provenance on;`: one lineage edge per derivation plus a
/// FiringRecord (lineage export included) per firing.
void BM_CommitProvenanceOn(benchmark::State& state) {
  RunCommits(state, /*provenance=*/true, /*waves=*/false);
}
BENCHMARK(BM_CommitProvenanceOn)->Arg(100)->Arg(1000);

/// `set wave_capture on;`: Δ-set snapshot + ring append per round.
void BM_CommitWaveCaptureOn(benchmark::State& state) {
  RunCommits(state, /*provenance=*/false, /*waves=*/true);
}
BENCHMARK(BM_CommitWaveCaptureOn)->Arg(100)->Arg(1000);

/// Both recorders armed — the full black-box configuration.
void BM_CommitFullCapture(benchmark::State& state) {
  RunCommits(state, /*provenance=*/true, /*waves=*/true);
}
BENCHMARK(BM_CommitFullCapture)->Arg(100)->Arg(1000);

/// The WaveLineage bookkeeping alone: one AddParent per derived row on
/// the capture path, dominated by the dedupe scan over prior parents.
void BM_LineageAddParent(benchmark::State& state) {
  Catalog catalog;
  auto rel = catalog.CreateStoredFunction(
      "q", FunctionSignature{{ColumnType{ValueKind::kInt, kInvalidTypeId}},
                             {ColumnType{ValueKind::kInt, kInvalidTypeId}}});
  if (!rel.ok()) {
    state.SkipWithError(rel.status().ToString().c_str());
    return;
  }
  int64_t i = 0;
  for (auto _ : state) {
    core::WaveLineage lineage;
    for (int j = 0; j < 64; ++j, ++i) {
      Tuple row{Value(i & 0xff), Value(int64_t{1})};
      lineage.AddParent(*rel, true, row,
                        core::WaveLineage::Parent{*rel, true, row, "Δq/Δ+q"});
    }
    benchmark::DoNotOptimize(lineage.size());
  }
  state.counters["rows"] = 64;
}
BENCHMARK(BM_LineageAddParent);

}  // namespace
}  // namespace deltamon

DELTAMON_BENCH_MAIN("micro_provenance_overhead");
