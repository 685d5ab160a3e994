/// Group-commit batching: with the commit queue paused, K transactions
/// queue up and — on resume — propagate as ONE deferred check-phase wave
/// (propagator.waves +1, txn.batches +1, txn.commits +K), firing exactly
/// the rules K serial commits would. Also covers the max-batch knob
/// splitting a backlog into multiple waves.

#include <algorithm>
#include <chrono>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "amosql/session.h"
#include "obs/metrics.h"

namespace deltamon {
namespace {

constexpr const char* kSchema =
    "create function stock(integer) -> integer;"
    "create rule low_stock() as"
    "  when for each integer k where stock(k) < 3"
    "  do note(k, stock(k));"
    "activate low_stock();"
    "set stock(0) = 10;"
    "set stock(1) = 10;"
    "set stock(2) = 10;"
    "set stock(3) = 10;"
    "commit;";

class GroupCommitTest : public ::testing::Test {
 protected:
  void SetUp() override {
    boot_.RegisterProcedure(
        "note", [this](Database&, const std::vector<Value>& args) {
          // Actions run on whichever thread leads the commit wave.
          std::lock_guard<std::mutex> lock(mu_);
          firings_.emplace_back(args[0].AsInt(), args[1].AsInt());
          return Status::OK();
        });
    auto r = boot_.Execute(kSchema);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
  }

  /// Runs one single-statement transaction per key on its own thread and
  /// session, all of which block in the paused commit queue; returns once
  /// every thread has finished (call after resuming).
  void CommitConcurrently(const std::vector<int>& keys, int value) {
    std::vector<std::thread> threads;
    for (int key : keys) {
      threads.emplace_back([this, key, value] {
        amosql::Session session(engine_);
        auto r = session.Execute("set stock(" + std::to_string(key) +
                                 ") = " + std::to_string(value) + "; commit;");
        EXPECT_TRUE(r.ok()) << r.status().ToString();
      });
    }
    // Wait for all K to be parked in the queue before resuming, so the
    // leader drains them as one batch.
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(30);
    while (engine_.txn.queued_commits() < keys.size()) {
      ASSERT_LT(std::chrono::steady_clock::now(), deadline)
          << "only " << engine_.txn.queued_commits() << " of " << keys.size()
          << " commits queued";
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    engine_.txn.SetCommitPaused(false);
    for (std::thread& t : threads) t.join();
  }

  std::vector<std::pair<int64_t, int64_t>> SortedFirings() {
    std::lock_guard<std::mutex> lock(mu_);
    std::vector<std::pair<int64_t, int64_t>> out = firings_;
    std::sort(out.begin(), out.end());
    return out;
  }

  Engine engine_;
  amosql::Session boot_{engine_};
  std::mutex mu_;
  std::vector<std::pair<int64_t, int64_t>> firings_;
};

TEST_F(GroupCommitTest, PausedQueueDrainsAsOneWave) {
  const std::vector<int> keys = {0, 1, 2, 3};
  obs::MetricsSnapshot before = obs::Registry::Global().Snapshot();
  engine_.txn.SetCommitPaused(true);
  CommitConcurrently(keys, /*value=*/1);
  obs::MetricsSnapshot diff =
      obs::Registry::Global().Snapshot().DiffSince(before);

// The counter assertions need the instrumentation compiled in; the
// firing and stamp assertions below hold either way.
#if DELTAMON_OBS_ENABLED
  // K transactions, ONE wave: the batched Δ-union went through a single
  // check phase and a single store commit.
  EXPECT_EQ(diff.CounterOr("txn.commits", 0), keys.size());
  EXPECT_EQ(diff.CounterOr("txn.batches", 0), 1u);
  EXPECT_EQ(diff.CounterOr("propagator.waves", 0), 1u);
  EXPECT_EQ(diff.CounterOr("db.commits", 0), 1u);
  EXPECT_EQ(diff.CounterOr("txn.aborts.conflict", 0), 0u);

  // Every member of the wave observed the same batch.
  auto it = diff.histograms.find("txn.batch_size");
  ASSERT_NE(it, diff.histograms.end());
  EXPECT_EQ(it->second.count, 1u);
#else
  (void)diff;
#endif

  // The single wave fired the rule for all four keys dropping below the
  // threshold — the same set of firings four serial commits produce
  // (order within a wave follows the Δ-union, so compare sorted).
  std::vector<std::pair<int64_t, int64_t>> expected = {
      {0, 1}, {1, 1}, {2, 1}, {3, 1}};
  EXPECT_EQ(SortedFirings(), expected);
}

TEST_F(GroupCommitTest, OneWaveFiresSameRulesAsSerialCommits) {
  // Serial reference: same schema, same four updates, one commit each.
  Engine serial_engine;
  amosql::Session serial(serial_engine);
  std::vector<std::pair<int64_t, int64_t>> serial_firings;
  serial.RegisterProcedure(
      "note", [&](Database&, const std::vector<Value>& args) {
        serial_firings.emplace_back(args[0].AsInt(), args[1].AsInt());
        return Status::OK();
      });
  ASSERT_TRUE(serial.Execute(kSchema).ok());
  for (int key = 0; key < 4; ++key) {
    ASSERT_TRUE(serial
                    .Execute("set stock(" + std::to_string(key) +
                             ") = 1; commit;")
                    .ok());
  }

  engine_.txn.SetCommitPaused(true);
  CommitConcurrently({0, 1, 2, 3}, /*value=*/1);
  std::sort(serial_firings.begin(), serial_firings.end());
  EXPECT_EQ(SortedFirings(), serial_firings);
}

TEST_F(GroupCommitTest, MaxBatchSplitsTheBacklog) {
  engine_.txn.SetMaxBatch(2);
  obs::MetricsSnapshot before = obs::Registry::Global().Snapshot();
  engine_.txn.SetCommitPaused(true);
  CommitConcurrently({0, 1, 2, 3}, /*value=*/5);
  obs::MetricsSnapshot diff =
      obs::Registry::Global().Snapshot().DiffSince(before);
#if DELTAMON_OBS_ENABLED
  EXPECT_EQ(diff.CounterOr("txn.commits", 0), 4u);
  EXPECT_EQ(diff.CounterOr("txn.batches", 0), 2u);
  EXPECT_EQ(diff.CounterOr("db.commits", 0), 2u);
#else
  (void)diff;
#endif
}

TEST_F(GroupCommitTest, BatchMembersShareTheWaveStamp) {
  engine_.txn.SetCommitPaused(true);
  std::mutex stamp_mu;
  std::vector<TxnSnapshot::CommitInfo> stamps;
  std::vector<std::thread> threads;
  for (int key = 0; key < 3; ++key) {
    threads.emplace_back([&, key] {
      amosql::Session session(engine_);
      auto r = session.Execute("set stock(" + std::to_string(key) +
                               ") = 7; commit;");
      EXPECT_TRUE(r.ok()) << r.status().ToString();
      std::lock_guard<std::mutex> lock(stamp_mu);
      stamps.push_back(session.txn_snapshot().last_commit);
    });
  }
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (engine_.txn.queued_commits() < 3u) {
    ASSERT_LT(std::chrono::steady_clock::now(), deadline);
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  engine_.txn.SetCommitPaused(false);
  for (std::thread& t : threads) t.join();

  ASSERT_EQ(stamps.size(), 3u);
  for (const auto& stamp : stamps) {
    EXPECT_EQ(stamp.batch_id, stamps[0].batch_id);
    EXPECT_EQ(stamp.batch_size, 3u);
  }
  // Distinct commit versions within the wave, in some order.
  std::vector<uint64_t> versions;
  for (const auto& stamp : stamps) versions.push_back(stamp.version);
  std::sort(versions.begin(), versions.end());
  EXPECT_EQ(std::unique(versions.begin(), versions.end()), versions.end());
}

}  // namespace
}  // namespace deltamon
