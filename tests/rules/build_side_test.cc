/// The hash-join build sides over stored relations that one propagation
/// wave shares (objectlog::BuildSideStore): every side is built exactly
/// once per wave, whichever worker needs it first, so the tuples a wave
/// examines do not depend on the pool size; and no side outlives its wave,
/// so a rule-processing round after an action's writes reads fresh sides.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "bench_util/inventory.h"
#include "obs/metrics.h"
#include "rules/engine.h"

namespace deltamon {
namespace {

using rules::MonitorMode;

/// One fig. 7 transaction over the fleet's inventory: quantity,
/// delivery_time and consume_freq change for every item. Delivery time 3
/// and consume frequency 21 raise every threshold to 21 * 3 + 100 = 163,
/// and every fourth item's quantity drops below it.
Status Fig7Update(Engine& engine, const workload::InventorySchema& s) {
  for (size_t i = 0; i < s.items.size(); ++i) {
    const Value item(s.items[i]);
    const int64_t quantity = i % 4 == 0 ? 120 : 900;
    DELTAMON_RETURN_IF_ERROR(
        engine.db.Set(s.quantity, Tuple{item}, Tuple{Value(quantity)}));
    DELTAMON_RETURN_IF_ERROR(
        engine.db.Set(s.delivery_time, Tuple{item, Value(s.suppliers[i])},
                      Tuple{Value(int64_t{3})}));
    DELTAMON_RETURN_IF_ERROR(engine.db.Set(s.consume_freq, Tuple{item},
                                           Tuple{Value(int64_t{21})}));
  }
  return engine.db.Commit();
}

struct FleetWave {
  size_t fired = 0;
  std::vector<std::string> trace;
  uint64_t tuples_examined = 0;
};

/// Runs the fig. 7 update once over a fresh 4-rule fleet of 40 items.
FleetWave RunFleetWave(size_t threads, bool kernels) {
  FleetWave out;
  auto setup = workload::SetupMonitorFleet(/*num_items=*/40, /*num_rules=*/4,
                                           MonitorMode::kIncremental);
  EXPECT_TRUE(setup.ok()) << setup.status().ToString();
  if (!setup.ok()) return out;
  Engine& engine = *(*setup)->engine;
  engine.rules.SetNumThreads(threads);
  engine.rules.SetKernelsEnabled(kernels);
  obs::Counter* examined =
      obs::Registry::Global().GetCounter("eval.tuples_examined");
  const uint64_t before = examined->value();
  Status st = Fig7Update(engine, (*setup)->schema);
  EXPECT_TRUE(st.ok()) << st.ToString();
  out.tuples_examined = examined->value() - before;
  out.fired = (*setup)->fired;
  for (const core::TraceEntry& e : engine.rules.last_trace()) {
    out.trace.push_back(e.ToString(engine.db.catalog()));
  }
  return out;
}

TEST(SharedBuildSideTest, FleetWaveBuildsEachSideOnceAtAnyPoolSize) {
  const FleetWave reference = RunFleetWave(/*threads=*/1, /*kernels=*/false);
  EXPECT_EQ(reference.fired, 4u * 10u);  // 4 rules x items 0, 4, ..., 36
  for (size_t threads : {1, 2, 4}) {
    SCOPED_TRACE("threads " + std::to_string(threads));
    const FleetWave wave = RunFleetWave(threads, /*kernels=*/true);
    EXPECT_EQ(wave.fired, reference.fired);
    EXPECT_EQ(wave.trace, reference.trace);
#if DELTAMON_OBS_ENABLED
    // The wave's 24 differentials read 40 Δ rows each (960). Their 88
    // build joins read 10 sides: the five stored relations the condition
    // joins, in NEW and OLD. Each side is scanned once, 40 tuples, by
    // whichever worker needs it first (400). Existence probes and the §7.2
    // point queries examine the other 560. Building a side per join would
    // scan 88 x 40 = 3 520 tuples instead of 400.
    EXPECT_EQ(wave.tuples_examined, 960u + 400u + 560u);
#endif
  }
}

/// The fleet's inventory with one strict rule whose first firing rewrites
/// the quantity and consume frequency of the items that did not fire.
struct RestockSetup {
  std::unique_ptr<Engine> engine = std::make_unique<Engine>();
  workload::InventorySchema schema;
  std::vector<std::vector<Tuple>> firings;
};

/// Round 1 fires for the first half of the items. Its action lowers the
/// other half's quantity to 250 and raises their consume frequency to 100
/// (threshold 100 * 2 + 100 = 300), so round 2 fires for them: its
/// differentials join the rewritten quantity and consume_freq extents
/// through build sides, which a side kept from round 1 would get wrong.
std::vector<std::string> RunRestockRounds(size_t threads, bool kernels,
                                          RestockSetup* setup) {
  workload::InventoryConfig config;
  config.num_items = 40;
  auto schema = workload::BuildInventory(*setup->engine, config);
  EXPECT_TRUE(schema.ok()) << schema.status().ToString();
  if (!schema.ok()) return {};
  setup->schema = *schema;
  Engine& engine = *setup->engine;
  const workload::InventorySchema& s = setup->schema;
  const size_t half = s.items.size() / 2;
  auto rule = engine.rules.CreateRule(
      "restock", s.cnd_monitor_items,
      [setup, half](Database& db, const Tuple&,
                    const std::vector<Tuple>& items) {
        setup->firings.push_back(items);
        if (setup->firings.size() > 1) return Status::OK();
        const workload::InventorySchema& sc = setup->schema;
        for (size_t i = half; i < sc.items.size(); ++i) {
          const Value item(sc.items[i]);
          DELTAMON_RETURN_IF_ERROR(
              db.Set(sc.quantity, Tuple{item}, Tuple{Value(int64_t{250})}));
          DELTAMON_RETURN_IF_ERROR(db.Set(sc.consume_freq, Tuple{item},
                                          Tuple{Value(int64_t{100})}));
        }
        return Status::OK();
      },
      rules::RuleOptions{});
  EXPECT_TRUE(rule.ok()) << rule.status().ToString();
  EXPECT_TRUE(engine.rules.Activate(*rule).ok());
  engine.rules.SetNumThreads(threads);
  engine.rules.SetKernelsEnabled(kernels);
  for (size_t i = 0; i < half; ++i) {
    EXPECT_TRUE(workload::SetFn(engine, s.quantity, s.items[i], 100).ok());
  }
  Status st = engine.db.Commit();
  EXPECT_TRUE(st.ok()) << st.ToString();
  EXPECT_EQ(engine.rules.last_check().rounds, 2u);
  std::vector<std::string> trace;
  for (const core::TraceEntry& e : engine.rules.last_trace()) {
    trace.push_back(e.ToString(engine.db.catalog()));
  }
  return trace;
}

TEST(SharedBuildSideTest, NoSideOutlivesItsWave) {
  RestockSetup reference;
  const std::vector<std::string> reference_trace =
      RunRestockRounds(/*threads=*/1, /*kernels=*/false, &reference);
  ASSERT_EQ(reference.firings.size(), 2u);
  EXPECT_EQ(reference.firings[0].size(), 20u);
  EXPECT_EQ(reference.firings[1].size(), 20u);
  for (size_t threads : {1, 2}) {
    SCOPED_TRACE("threads " + std::to_string(threads));
    RestockSetup setup;
    EXPECT_EQ(RunRestockRounds(threads, /*kernels=*/true, &setup),
              reference_trace);
    EXPECT_EQ(setup.firings, reference.firings);
  }
}

}  // namespace
}  // namespace deltamon
