/// Batch-kernel plans are compiled with the propagation network, not per
/// evaluation: a run of one-tuple waves through the rule manager plans
/// each partial differential once per liveness variant, and a change to
/// the observed-selectivity StatsStore recompiles each plan exactly once
/// before the next wave — then never again until the stats move.

#include <gtest/gtest.h>

#include <memory>

#include "bench_util/inventory.h"
#include "core/network.h"
#include "objectlog/eval.h"
#include "rules/engine.h"

namespace deltamon {
namespace {

using objectlog::KernelPlan;

class KernelPlanOnceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto setup = workload::SetupMonitorItems(
        /*num_items=*/20, rules::MonitorMode::kIncremental,
        rules::Semantics::kStrict, /*propagate_deletions=*/true);
    ASSERT_TRUE(setup.ok()) << setup.status().ToString();
    setup_ = std::move(*setup);
  }

  /// One commit changing one quantity: a one-tuple Δ+ and Δ− on quantity.
  void Wave() {
    Engine& engine = *setup_->engine;
    const workload::InventorySchema& s = setup_->schema;
    Oid item = s.items[next_ % s.items.size()];
    ASSERT_TRUE(workload::SetFn(engine, s.quantity, item,
                                static_cast<int64_t>(500 + next_ % 7))
                    .ok());
    ++next_;
    ASSERT_TRUE(engine.db.Commit().ok());
    executed_ += engine.rules.last_check().propagation.differentials_executed;
  }

  /// Plans the network holds: one per non-aggregate differential and
  /// liveness variant, all kernel-eligible in this scenario.
  uint64_t NetworkPlans() {
    auto net = setup_->engine->rules.network();
    EXPECT_TRUE(net.ok());
    uint64_t plans = 0;
    for (const core::PartialDifferential& diff : (*net)->differentials()) {
      if (diff.aggregate) continue;
      for (const KernelPlan& plan : diff.kernel_plans) {
        EXPECT_TRUE(plan.eligible());
        ++plans;
      }
    }
    return plans;
  }

  std::unique_ptr<workload::MonitorSetup> setup_;
  size_t next_ = 0;
  size_t executed_ = 0;
};

TEST_F(KernelPlanOnceTest, PlansCompileWithTheNetworkAndAfterStatsMove) {
  Engine& engine = *setup_->engine;
  ASSERT_TRUE(engine.rules.kernels_enabled());

  // The first wave builds the network, which plans every differential;
  // the other 99 only execute plans.
  const uint64_t start = KernelPlan::compilations();
  for (int i = 0; i < 100; ++i) Wave();
  const uint64_t plans = NetworkPlans();
  EXPECT_EQ(plans, 2 * engine.rules.network().value()->differentials().size());
  EXPECT_GT(executed_, 100u);
  EXPECT_EQ(KernelPlan::compilations() - start, plans);

  // One new observation makes every plan stale: the next wave recompiles
  // each exactly once, and later waves run the refreshed plans.
  const uint64_t before_record = KernelPlan::compilations();
  engine.db.catalog().stats().Record(
      setup_->schema.quantity,
      static_cast<int>(objectlog::RelationRole::kExtent), /*nbound=*/1,
      /*tried=*/10, /*produced=*/1);
  for (int i = 0; i < 100; ++i) Wave();
  EXPECT_EQ(KernelPlan::compilations() - before_record, plans);
  for (const core::PartialDifferential& diff :
       engine.rules.network().value()->differentials()) {
    for (bool lineage : {false, true}) {
      EXPECT_TRUE(diff.kernel_plans[lineage].FreshFor(
          engine.db.catalog().stats(), lineage));
    }
  }

  // Lineage capture runs the other liveness variant — planned already.
  const uint64_t before_lineage = KernelPlan::compilations();
  engine.rules.SetProvenanceEnabled(true);
  for (int i = 0; i < 10; ++i) Wave();
  engine.rules.SetProvenanceEnabled(false);
  EXPECT_EQ(KernelPlan::compilations(), before_lineage);
}

}  // namespace
}  // namespace deltamon
