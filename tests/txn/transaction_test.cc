/// Per-session transaction basics over the AMOSQL surface: snapshot
/// overlays (read-your-writes, isolation of buffered DML), begin/commit/
/// abort statements, autocommit snapshot refresh, the read-only commit
/// fast path, and the CommitInfo a committed wave stamps on the session.

#include <gtest/gtest.h>

#include "amosql/session.h"

namespace deltamon {
namespace {

class TransactionTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto r = s1_.Execute(
        "create function stock(integer) -> integer;"
        "set stock(1) = 10;"
        "set stock(2) = 20;"
        "commit;");
    ASSERT_TRUE(r.ok()) << r.status().ToString();
  }

  Status Exec(amosql::Session& s, const std::string& src) {
    return s.Execute(src).status();
  }

  /// stock(key) through `s`, or INT64_MIN when the row is absent.
  int64_t Stock(amosql::Session& s, int key) {
    auto r = s.Execute("select stock(" + std::to_string(key) + ");");
    EXPECT_TRUE(r.ok()) << r.status().ToString();
    if (!r.ok() || r->rows.empty()) return INT64_MIN;
    return r->rows[0][0].AsInt();
  }

  Engine engine_;
  amosql::Session s1_{engine_};
  amosql::Session s2_{engine_};
};

TEST_F(TransactionTest, ReadYourWritesAndIsolationUntilCommit) {
  ASSERT_TRUE(Exec(s1_, "begin; set stock(1) = 11;").ok());
  // The writer sees its own buffered overlay ...
  EXPECT_EQ(Stock(s1_, 1), 11);
  // ... the other session still sees the committed state ...
  EXPECT_EQ(Stock(s2_, 1), 10);
  ASSERT_TRUE(Exec(s1_, "commit;").ok());
  // ... and sees the new value once the wave commits (autocommit reads
  // re-snapshot per statement).
  EXPECT_EQ(Stock(s2_, 1), 11);
}

TEST_F(TransactionTest, AbortDiscardsBufferedWrites) {
  ASSERT_TRUE(Exec(s1_, "begin; set stock(1) = 99; set stock(3) = 3;").ok());
  EXPECT_EQ(Stock(s1_, 1), 99);
  ASSERT_TRUE(Exec(s1_, "abort;").ok());
  EXPECT_FALSE(s1_.txn_snapshot().HasWrites());
  EXPECT_FALSE(s1_.txn_snapshot().HasReads());
  EXPECT_EQ(Stock(s1_, 1), 10);
  auto r = s1_.Execute("select stock(3);");
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r->rows.empty());  // the insert never reached the store
}

TEST_F(TransactionTest, RollbackSpellingWorksToo) {
  ASSERT_TRUE(Exec(s1_, "begin; set stock(1) = 99; rollback;").ok());
  EXPECT_EQ(Stock(s1_, 1), 10);
}

TEST_F(TransactionTest, BeginWithBufferedChangesIsRejected) {
  ASSERT_TRUE(Exec(s1_, "begin; set stock(1) = 11;").ok());
  Status s = Exec(s1_, "begin;");
  EXPECT_EQ(s.code(), StatusCode::kFailedPrecondition) << s.ToString();
  ASSERT_TRUE(Exec(s1_, "abort;").ok());
}

TEST_F(TransactionTest, AutocommitStatementsSeeConcurrentCommits) {
  // No explicit begin: every statement runs against a fresh snapshot, so
  // s2's read observes whatever s1 committed in between.
  EXPECT_EQ(Stock(s2_, 2), 20);
  ASSERT_TRUE(Exec(s1_, "set stock(2) = 21; commit;").ok());
  EXPECT_EQ(Stock(s2_, 2), 21);
}

TEST_F(TransactionTest, ReadOnlyCommitSkipsValidation) {
  // A transaction that buffered nothing commits without queueing — even
  // when a concurrent commit touched what it read (the documented
  // read-skew allowance for read-only transactions).
  ASSERT_TRUE(Exec(s2_, "begin;").ok());
  EXPECT_EQ(Stock(s2_, 1), 10);
  ASSERT_TRUE(Exec(s1_, "set stock(1) = 12; commit;").ok());
  EXPECT_TRUE(Exec(s2_, "commit;").ok());
}

TEST_F(TransactionTest, CommitInfoStampsTheWave) {
  const auto& before = s1_.txn_snapshot().last_commit;
  const uint64_t batch_before = before.batch_id;
  ASSERT_TRUE(Exec(s1_, "set stock(1) = 13; commit;").ok());
  const auto& info = s1_.txn_snapshot().last_commit;
  EXPECT_GT(info.batch_id, batch_before);
  EXPECT_GT(info.version, 0u);
  EXPECT_GE(info.batch_size, 1u);
}

TEST_F(TransactionTest, DdlRidesTheNextCommitWave) {
  // Object creation writes the store directly (DDL is non-transactional)
  // but its events still ride this session's next commit wave.
  ASSERT_TRUE(Exec(s1_,
                   "create type item;"
                   "create function qty(item) -> integer;"
                   "create item instances :a;"
                   "set qty(:a) = 5;"
                   "commit;")
                  .ok());
  auto r = s1_.Execute("select qty(i) for each item i;");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_EQ(r->rows.size(), 1u);
  EXPECT_EQ(r->rows[0][0], Value(5));
}

TEST_F(TransactionTest, CommitAfterDdlAloneRunsTheWave) {
  // `create instances` writes extent rows straight into the store; a fresh
  // session's commit with nothing else buffered must still carry them
  // through a wave instead of leaving them pending for someone else's.
  amosql::Session fresh(engine_);
  ASSERT_TRUE(Exec(fresh,
                   "create type item;"
                   "create function qty(item) -> integer;"
                   "create rule stock_new() as"
                   "  when for each item i where i = i"
                   "  do set qty(i) = 0;"
                   "activate stock_new();"
                   "create item instances :a;")
                  .ok());
  const Database& db = engine_.db;
  ASSERT_TRUE(db.HasPendingChanges()) << "the rule monitors the extent";
  const uint64_t commits = db.stats().commits;
  ASSERT_TRUE(Exec(fresh, "commit;").ok());
  EXPECT_FALSE(db.HasPendingChanges());
  EXPECT_EQ(db.stats().commits, commits + 1);
  auto r = fresh.Execute("select qty(:a);");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_EQ(r->rows.size(), 1u) << "the wave fired the rule for :a";
  EXPECT_EQ(r->rows[0][0], Value(0));
}

}  // namespace
}  // namespace deltamon
