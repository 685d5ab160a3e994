/// Microbenchmarks for the observability layer itself: what a counter
/// increment, a histogram record, and a registry snapshot cost, both with
/// the runtime flag on and off. Guards the "<2% overhead when disabled"
/// budget — the disabled paths must stay in the low single-digit
/// nanoseconds (one relaxed atomic load + branch).

#include <benchmark/benchmark.h>

#include "bench_util/inventory.h"
#include "bench_util/report.h"
#include "obs/metrics.h"
#include "obs/span.h"
#include "obs/trace.h"

namespace deltamon {
namespace {

void BM_CounterAddEnabled(benchmark::State& state) {
  obs::SetEnabled(true);
  for (auto _ : state) {
    DELTAMON_OBS_COUNT("bench.obs_overhead.counter", 1);
  }
}
BENCHMARK(BM_CounterAddEnabled);

void BM_CounterAddDisabled(benchmark::State& state) {
  obs::SetEnabled(false);
  for (auto _ : state) {
    DELTAMON_OBS_COUNT("bench.obs_overhead.counter", 1);
  }
  obs::SetEnabled(true);
}
BENCHMARK(BM_CounterAddDisabled);

void BM_HistogramRecordEnabled(benchmark::State& state) {
  obs::SetEnabled(true);
  uint64_t v = 0;
  for (auto _ : state) {
    DELTAMON_OBS_RECORD("bench.obs_overhead.histogram", v & 0xffff);
    ++v;
  }
  benchmark::DoNotOptimize(v);
}
BENCHMARK(BM_HistogramRecordEnabled);

void BM_HistogramRecordDisabled(benchmark::State& state) {
  obs::SetEnabled(false);
  uint64_t v = 0;
  for (auto _ : state) {
    DELTAMON_OBS_RECORD("bench.obs_overhead.histogram", v & 0xffff);
    ++v;
  }
  obs::SetEnabled(true);
  benchmark::DoNotOptimize(v);
}
BENCHMARK(BM_HistogramRecordDisabled);

void BM_ScopedTimer(benchmark::State& state) {
  obs::SetEnabled(true);
  for (auto _ : state) {
    DELTAMON_OBS_SCOPED_TIMER(t, "bench.obs_overhead.timer_ns");
  }
}
BENCHMARK(BM_ScopedTimer);

void BM_SpanNoSink(benchmark::State& state) {
  // The disabled path every propagation wave pays when nobody traces: the
  // constructor's trace-scope and global-sink loads and the destructor's
  // branch. Must stay within the same budget as a disabled counter.
  obs::SetTraceSink(nullptr);
  for (auto _ : state) {
    DELTAMON_OBS_SPAN(span, "bench", "obs_overhead");
    benchmark::DoNotOptimize(span.active());
  }
}
BENCHMARK(BM_SpanNoSink);

void BM_SpanRingSink(benchmark::State& state) {
  // The enabled path `trace <stmt>;` pays per span: id allocation, two
  // clock reads, building and emitting the TraceEvent into the ring.
  obs::RingTraceSink ring(4096);
  obs::SetTraceSink(&ring);
  for (auto _ : state) {
    DELTAMON_OBS_SPAN(span, "bench", "obs_overhead");
    span.AddField("value", 1);
  }
  obs::SetTraceSink(nullptr);
  state.counters["dropped"] = static_cast<double>(ring.dropped_events());
}
BENCHMARK(BM_SpanRingSink);

/// The fig-6 inner loop with the per-literal profiler compiled in but
/// detached (no `explain analyze` running): the cost every ordinary
/// transaction pays for the profiler's existence — one null check per
/// clause. Identical by name in a -DDELTAMON_OBS=OFF build, where the
/// profiler is compiled out entirely; CI runs both builds and gates the
/// difference with bench_diff (the ≤1% disabled-path budget).
void BM_Fig6ProfilerDisabled(benchmark::State& state) {
  obs::SetEnabled(false);
  auto setup = workload::SetupMonitorItems(
      static_cast<size_t>(state.range(0)), rules::MonitorMode::kIncremental);
  if (!setup.ok()) {
    state.SkipWithError(setup.status().ToString().c_str());
    return;
  }
  Engine& engine = *(*setup)->engine;
  const workload::InventorySchema& schema = (*setup)->schema;
  int64_t round = 0;
  for (auto _ : state) {
    for (int tx = 0; tx < 100; ++tx, ++round) {
      Oid item = schema.items[static_cast<size_t>(round) % schema.items.size()];
      benchmark::DoNotOptimize(
          workload::SetFn(engine, schema.quantity, item, 900 + (round % 89)));
      if (!engine.db.Commit().ok()) std::abort();
    }
  }
  obs::SetEnabled(true);
  state.counters["items"] = static_cast<double>(state.range(0));
  state.counters["txs"] = 100;
}
BENCHMARK(BM_Fig6ProfilerDisabled)->Arg(100)->Arg(1000);

void BM_RegistrySnapshot(benchmark::State& state) {
  obs::SetEnabled(true);
  // Populate a registry of realistic size before measuring.
  for (int i = 0; i < 64; ++i) {
    obs::Registry::Global()
        .GetCounter("bench.obs_overhead.fill." + std::to_string(i))
        ->Add(i);
  }
  for (auto _ : state) {
    obs::MetricsSnapshot snap = obs::Registry::Global().Snapshot();
    benchmark::DoNotOptimize(snap.counters.size());
  }
}
BENCHMARK(BM_RegistrySnapshot);

}  // namespace
}  // namespace deltamon

DELTAMON_BENCH_MAIN("micro_obs_overhead");
