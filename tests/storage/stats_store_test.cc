/// StatsStore: the catalog's persistent (relation, role, nbound) ->
/// observed-selectivity table that `explain analyze` / `analyze rule`
/// populate and the greedy literal-ordering optimizer consults.

#include "storage/stats_store.h"

#include <gtest/gtest.h>

namespace deltamon {
namespace {

TEST(StatsStoreTest, UnseenKeyHasNoSelectivity) {
  StatsStore stats;
  EXPECT_FALSE(stats.Selectivity(7, /*role=*/0, /*nbound=*/1).has_value());
  EXPECT_EQ(stats.size(), 0u);
}

TEST(StatsStoreTest, RecordAccumulatesCumulativeSelectivity) {
  StatsStore stats;
  stats.Record(7, 0, 1, /*tried=*/100, /*produced=*/10);
  auto sel = stats.Selectivity(7, 0, 1);
  ASSERT_TRUE(sel.has_value());
  EXPECT_DOUBLE_EQ(*sel, 0.1);

  // A second observation folds in: (10 + 40) / (100 + 100).
  stats.Record(7, 0, 1, 100, 40);
  sel = stats.Selectivity(7, 0, 1);
  ASSERT_TRUE(sel.has_value());
  EXPECT_DOUBLE_EQ(*sel, 0.25);
  EXPECT_EQ(stats.size(), 1u);
}

TEST(StatsStoreTest, NothingTriedCarriesNoSignal) {
  StatsStore stats;
  stats.Record(7, 0, 1, /*tried=*/0, /*produced=*/0);
  EXPECT_FALSE(stats.Selectivity(7, 0, 1).has_value());
  EXPECT_EQ(stats.size(), 0u);
}

TEST(StatsStoreTest, KeysAreDistinctPerRoleAndBoundness) {
  StatsStore stats;
  stats.Record(7, 0, 1, 100, 10);
  stats.Record(7, 0, 2, 100, 1);
  stats.Record(7, 3, 1, 100, 50);
  stats.Record(8, 0, 1, 100, 100);
  EXPECT_EQ(stats.size(), 4u);
  EXPECT_DOUBLE_EQ(*stats.Selectivity(7, 0, 1), 0.10);
  EXPECT_DOUBLE_EQ(*stats.Selectivity(7, 0, 2), 0.01);
  EXPECT_DOUBLE_EQ(*stats.Selectivity(7, 3, 1), 0.50);
  EXPECT_DOUBLE_EQ(*stats.Selectivity(8, 0, 1), 1.0);
}

TEST(StatsStoreTest, VersionMovesWithEveryRecordedObservationAndClear) {
  StatsStore stats;
  const uint64_t v0 = stats.version();
  stats.Record(7, 0, 1, /*tried=*/0, /*produced=*/0);  // no signal
  EXPECT_EQ(stats.version(), v0);
  stats.Record(7, 0, 1, 100, 10);
  const uint64_t v1 = stats.version();
  EXPECT_NE(v1, v0);
  stats.Record(7, 0, 1, 100, 10);  // same cell, new totals
  EXPECT_NE(stats.version(), v1);
  const uint64_t v2 = stats.version();
  stats.Clear();
  EXPECT_NE(stats.version(), v2);
}

TEST(StatsStoreTest, ClearForgetsEverything) {
  StatsStore stats;
  stats.Record(7, 0, 1, 100, 10);
  stats.Clear();
  EXPECT_EQ(stats.size(), 0u);
  EXPECT_FALSE(stats.Selectivity(7, 0, 1).has_value());
}

}  // namespace
}  // namespace deltamon
