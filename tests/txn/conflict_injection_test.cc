/// Deterministic conflict injection: two sessions on one engine, driven
/// from a single test thread so every interleaving is exact. Pins down
/// which transaction first-committer-wins validation aborts, that an
/// abort rolls the overlay back completely (including rule side effects:
/// the loser's writes never fire anything), and that the retried
/// transaction succeeds.

#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "amosql/session.h"

namespace deltamon {
namespace {

class ConflictInjectionTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // The bootstrap session plays deltamond's --init script; it owns the
    // rule so `note` firings land in firings_.
    boot_.RegisterProcedure(
        "note", [this](Database&, const std::vector<Value>& args) {
          firings_.emplace_back(args[0].AsInt(), args[1].AsInt());
          return Status::OK();
        });
    auto r = boot_.Execute(
        "create function stock(integer) -> integer;"
        "create rule low_stock() as"
        "  when for each integer k where stock(k) < 3"
        "  do note(k, stock(k));"
        "activate low_stock();"
        "set stock(1) = 10;"
        "set stock(2) = 20;"
        "commit;");
    ASSERT_TRUE(r.ok()) << r.status().ToString();
  }

  Status Exec(amosql::Session& s, const std::string& src) {
    return s.Execute(src).status();
  }

  int64_t Stock(amosql::Session& s, int key) {
    auto r = s.Execute("select stock(" + std::to_string(key) + ");");
    EXPECT_TRUE(r.ok()) << r.status().ToString();
    if (!r.ok() || r->rows.empty()) return INT64_MIN;
    return r->rows[0][0].AsInt();
  }

  Engine engine_;
  amosql::Session boot_{engine_};
  amosql::Session s1_{engine_};
  amosql::Session s2_{engine_};
  std::vector<std::pair<int64_t, int64_t>> firings_;
};

TEST_F(ConflictInjectionTest, WriteWriteAbortsTheSecondCommitter) {
  ASSERT_TRUE(Exec(s1_, "begin; set stock(1) = 11;").ok());
  ASSERT_TRUE(Exec(s2_, "begin; set stock(1) = 12;").ok());
  // s1 reaches the commit queue first and wins; s2's write set overlaps
  // a transaction committed after its snapshot, so validation aborts it.
  ASSERT_TRUE(Exec(s1_, "commit;").ok());
  Status s = Exec(s2_, "commit;");
  EXPECT_EQ(s.code(), StatusCode::kTxnConflict) << s.ToString();
  EXPECT_NE(s.ToString().find("conflict"), std::string::npos);
  EXPECT_NE(s.ToString().find("stock"), std::string::npos);
  EXPECT_EQ(Stock(boot_, 1), 11);  // the winner's value stuck
}

TEST_F(ConflictInjectionTest, WriteAfterReadOnMonitoredRelationAborts) {
  // s2 reads stock(1), then s1 overwrites it and commits. s2's own write
  // is on a disjoint key, but its read footprint overlaps the committed
  // write — the value it based its transaction on is stale.
  ASSERT_TRUE(Exec(s2_, "begin;").ok());
  EXPECT_EQ(Stock(s2_, 1), 10);
  ASSERT_TRUE(Exec(s1_, "begin; set stock(1) = 30; commit;").ok());
  ASSERT_TRUE(Exec(s2_, "set stock(2) = 99;").ok());
  Status s = Exec(s2_, "commit;");
  EXPECT_EQ(s.code(), StatusCode::kTxnConflict) << s.ToString();
  EXPECT_EQ(Stock(boot_, 2), 20);  // the loser's write was discarded
}

TEST_F(ConflictInjectionTest, BlindAppendsOnDisjointKeysBothCommit) {
  ASSERT_TRUE(Exec(s1_, "begin; add stock(3) = 7;").ok());
  ASSERT_TRUE(Exec(s2_, "begin; add stock(4) = 8;").ok());
  EXPECT_TRUE(Exec(s1_, "commit;").ok());
  EXPECT_TRUE(Exec(s2_, "commit;").ok());
  EXPECT_EQ(Stock(boot_, 3), 7);
  EXPECT_EQ(Stock(boot_, 4), 8);
}

TEST_F(ConflictInjectionTest, AbortRollsBackTheOverlayCompletely) {
  ASSERT_TRUE(Exec(s2_, "begin; set stock(1) = 1; set stock(5) = 50;").ok());
  ASSERT_TRUE(Exec(s1_, "begin; set stock(1) = 40; commit;").ok());
  ASSERT_EQ(Exec(s2_, "commit;").code(), StatusCode::kTxnConflict);
  // Nothing of the aborted transaction survives: no buffered state, no
  // stored rows, and crucially no rule firing — stock(1) = 1 is below the
  // monitor threshold but never became visible to the check phase.
  EXPECT_FALSE(s2_.txn_snapshot().HasWrites());
  EXPECT_FALSE(s2_.txn_snapshot().HasReads());
  EXPECT_EQ(Stock(s2_, 1), 40);
  auto r = s2_.Execute("select stock(5);");
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r->rows.empty());
  EXPECT_TRUE(firings_.empty());
}

TEST_F(ConflictInjectionTest, RetriedTransactionSucceeds) {
  const std::string txn = "begin; set stock(1) = 2; commit;";
  ASSERT_TRUE(Exec(s2_, "begin; set stock(1) = 2;").ok());
  ASSERT_TRUE(Exec(s1_, "begin; set stock(1) = 6; commit;").ok());
  ASSERT_EQ(Exec(s2_, "commit;").code(), StatusCode::kTxnConflict);
  // The abort reset the session to autocommit state; re-sending the whole
  // transaction verbatim — what a client does on a kAborted frame — works.
  Status s = Exec(s2_, txn);
  ASSERT_TRUE(s.ok()) << s.ToString();
  EXPECT_EQ(Stock(boot_, 1), 2);
  // The committed retry dropped stock(1) below the threshold: exactly one
  // firing, from the retry's wave.
  ASSERT_EQ(firings_.size(), 1u);
  EXPECT_EQ(firings_[0], std::make_pair(int64_t{1}, int64_t{2}));
}

TEST_F(ConflictInjectionTest, ConflictMessageNamesTheVersionAndRelation) {
  ASSERT_TRUE(Exec(s1_, "begin; set stock(2) = 21;").ok());
  ASSERT_TRUE(Exec(s2_, "begin; set stock(2) = 22;").ok());
  ASSERT_TRUE(Exec(s1_, "commit;").ok());
  Status s = Exec(s2_, "commit;");
  ASSERT_EQ(s.code(), StatusCode::kTxnConflict);
  EXPECT_NE(s.ToString().find("retry"), std::string::npos) << s.ToString();
}

}  // namespace
}  // namespace deltamon
