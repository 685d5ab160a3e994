/// `explain analyze <stmt>;` and `analyze rule <name>;`: the per-literal
/// cardinality/cost profiler surfaced end to end — estimated vs actual
/// rows, observed selectivity, probe-vs-scan, cumulative time, the >4x
/// MISEST flag, a JSON artifact, stats feedback into the catalog's
/// StatsStore, and byte-identical output across `set threads 1/2/4/8;`
/// once the wall-time column is stripped.

#include <gtest/gtest.h>

#include <regex>
#include <string>

#include "amosql/session.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "obs/profile.h"
#include "obs/report.h"

namespace deltamon::amosql {
namespace {

#if DELTAMON_OBS_ENABLED
/// Drops the wall-time column (the only nondeterministic field) from an
/// `explain analyze` report: "  12345ns" -> "".
std::string StripTimes(const std::string& report) {
  static const std::regex kTime(" +[0-9]+ns");
  return std::regex_replace(report, kTime, "");
}
#endif  // DELTAMON_OBS_ENABLED

class ExplainAnalyzeTest : public ::testing::Test {
 protected:
  void SetUp() override {
    obs::SetEnabled(true);
    auto r = session_.Execute(
        "create type item;"
        "create function quantity(item) -> integer;"
        "create function threshold(item) -> integer;"
        "create rule watch_low() as"
        "  when for each item i where quantity(i) < threshold(i)"
        "  do set quantity(i) = threshold(i);"
        "create item instances :a, :b, :c;"
        "set threshold(:a) = 10; set threshold(:b) = 10;"
        "set threshold(:c) = 10;"
        "set quantity(:a) = 42; set quantity(:b) = 42;"
        "set quantity(:c) = 42;"
        "commit;"
        "activate watch_low();");
    ASSERT_TRUE(r.ok()) << r.status();
  }

  std::string Report(const std::string& src) {
    auto r = session_.Execute(src);
    EXPECT_TRUE(r.ok()) << r.status();
    return r.ok() ? r->report : std::string();
  }

  Engine engine_;
  Session session_{engine_};
};

TEST_F(ExplainAnalyzeTest, ParseRequiresAnalyzeAndRuleKeywords) {
  EXPECT_FALSE(session_.Execute("explain select i for each item i;").ok());
  EXPECT_FALSE(session_.Execute("analyze watch_low;").ok());
  EXPECT_FALSE(session_.Execute("analyze rule;").ok());
}

TEST_F(ExplainAnalyzeTest, SelectPrintsPerLiteralTable) {
  auto r = session_.Execute(
      "explain analyze select i for each item i where quantity(i) > 20;");
  ASSERT_TRUE(r.ok()) << r.status();
  // The wrapped select still returns its rows.
  EXPECT_EQ(r->rows.size(), 3u);
  const std::string& report = r->report;
  EXPECT_NE(report.find("EXPLAIN ANALYZE"), std::string::npos) << report;
#if DELTAMON_OBS_ENABLED
  // Table header and at least one profiled clause with relation literals.
  EXPECT_NE(report.find("est.rows"), std::string::npos) << report;
  EXPECT_NE(report.find("actual"), std::string::npos) << report;
  EXPECT_NE(report.find("quantity"), std::string::npos) << report;
  EXPECT_NE(report.find("scan"), std::string::npos) << report;
  EXPECT_NE(report.find("ns"), std::string::npos) << report;
#else
  EXPECT_NE(report.find("compiled out"), std::string::npos) << report;
#endif
}

TEST_F(ExplainAnalyzeTest, CommitProfilesThePropagationWave) {
  std::string report = Report(
      "set quantity(:a) = 5;"
      "explain analyze commit;");
  EXPECT_NE(report.find("EXPLAIN ANALYZE"), std::string::npos) << report;
#if DELTAMON_OBS_ENABLED
  // The check phase ran partial differentials; their clauses are labeled
  // by differential name (Δ+cnd_watch_low/Δ+quantity).
  EXPECT_NE(report.find("Δ+cnd_watch_low"), std::string::npos) << report;
  EXPECT_NE(report.find("delta"), std::string::npos) << report;
#endif
  // The rule fired and restocked the item.
  auto rows = session_.Execute("select quantity(:a);");
  ASSERT_TRUE(rows.ok());
  ASSERT_EQ(rows->rows.size(), 1u);
  EXPECT_EQ(rows->rows[0][0], Value(10));
}

#if DELTAMON_OBS_ENABLED

TEST_F(ExplainAnalyzeTest, WritesProfileJsonArtifact) {
  const std::string path = ::testing::TempDir() + "/explain_analyze.json";
  std::string report = Report("explain analyze \"" + path +
                              "\" select i for each item i;");
  EXPECT_NE(report.find("PROFILE JSON " + path), std::string::npos) << report;
  auto text = obs::ReadTextFile(path);
  ASSERT_TRUE(text.ok()) << text.status();
  auto doc = obs::Json::Parse(*text);
  ASSERT_TRUE(doc.ok()) << doc.status();
  ASSERT_NE(doc->Get("schema"), nullptr);
  EXPECT_EQ(doc->Get("schema")->as_string(), obs::kProfileSchema);
  ASSERT_NE(doc->Get("clauses"), nullptr);
  ASSERT_GT(doc->Get("clauses")->size(), 0u);
  const obs::Json& clause = doc->Get("clauses")->at(0);
  ASSERT_NE(clause.Get("literals"), nullptr);
  ASSERT_GT(clause.Get("literals")->size(), 0u);
  const obs::Json& lit = clause.Get("literals")->at(0);
  for (const char* field :
       {"text", "access", "est_rows", "rows_out", "selectivity",
        "bindings_tried", "time_ns", "misestimate"}) {
    EXPECT_NE(lit.Get(field), nullptr) << field;
  }
}

TEST_F(ExplainAnalyzeTest, FeedsObservedSelectivitiesIntoTheCatalog) {
  StatsStore& stats = engine_.db.catalog().stats();
  ASSERT_EQ(stats.size(), 0u);
  Report("explain analyze select i for each item i where quantity(i) > 20;");
  EXPECT_GT(stats.size(), 0u);
}

TEST_F(ExplainAnalyzeTest, AnalyzeRulePrintsConditionProfileAndRecordsStats) {
  StatsStore& stats = engine_.db.catalog().stats();
  ASSERT_EQ(stats.size(), 0u);
  std::string report = Report("analyze rule watch_low;");
  EXPECT_NE(report.find("ANALYZE RULE watch_low"), std::string::npos)
      << report;
  EXPECT_NE(report.find("cnd_watch_low"), std::string::npos) << report;
  EXPECT_NE(report.find("quantity"), std::string::npos) << report;
  EXPECT_GT(stats.size(), 0u);
}

TEST_F(ExplainAnalyzeTest, AnalyzeRuleRejectsUnknownRules) {
  EXPECT_FALSE(session_.Execute("analyze rule no_such_rule;").ok());
}

TEST_F(ExplainAnalyzeTest, ErrorsInTheInnerStatementDetachTheProfiler) {
  EXPECT_FALSE(
      session_.Execute("explain analyze select nonsense_fn(:a);").ok());
  // A later statement must run unprofiled without crashing on a dangling
  // profiler pointer.
  auto r = session_.Execute("select i for each item i;");
  EXPECT_TRUE(r.ok()) << r.status();
}

TEST(ExplainAnalyzeDeterminismTest, ReportIsIdenticalAcrossThreadCounts) {
  obs::SetEnabled(true);
  std::string reference;
  for (const char* threads : {"1", "2", "4", "8"}) {
    Engine engine;
    Session session(engine);
    auto setup = session.Execute(
        "create type item;"
        "create function quantity(item) -> integer;"
        "create function low_items() -> item as"
        "  select i for each item i where quantity(i) < 10;"
        "create rule watch_low() as"
        "  when for each item i where quantity(i) < 10"
        "  do set quantity(i) = 10;"
        "create item instances :a, :b, :c, :d;"
        "set quantity(:a) = 42; set quantity(:b) = 42;"
        "set quantity(:c) = 42; set quantity(:d) = 42;"
        "commit;"
        "activate watch_low();"
        "set threads " + std::string(threads) + ";");
    ASSERT_TRUE(setup.ok()) << setup.status();
    auto r = session.Execute(
        "set quantity(:a) = 5;"
        "set quantity(:c) = 3;"
        "explain analyze commit;"
        "explain analyze select i, j for each item i, item j"
        "  where quantity(i) < quantity(j);");
    ASSERT_TRUE(r.ok()) << r.status();
    std::string stripped = StripTimes(r->report);
    // Sanity: stripping removed every raw nanosecond value.
    EXPECT_FALSE(std::regex_search(stripped, std::regex("[0-9]ns")))
        << stripped;
    if (reference.empty()) {
      reference = stripped;
      ASSERT_NE(reference.find("EXPLAIN ANALYZE"), std::string::npos);
    } else {
      EXPECT_EQ(stripped, reference) << "threads=" << threads;
    }
  }
}

/// The paper's inventory schema (threshold expanded through supplies and
/// delivery_time). Its Δquantity differentials have several single-bound
/// probes, so observed selectivities reorder them: the commit profiled
/// after `analyze rule` runs delivery_time first (semi-join filtered)
/// where the one before ran supplies first. Both reports were captured
/// from per-evaluation planning; plans compiled with the network and
/// refreshed when the stats move must reproduce them byte for byte.
TEST(ExplainAnalyzePinTest, CommitReportsBeforeAndAfterAnalyzeRule) {
  obs::SetEnabled(true);
  Engine engine;
  Session session(engine);
  auto setup = session.Execute(
      "create type item;"
      "create type supplier;"
      "create function quantity(item) -> integer;"
      "create function max_stock(item) -> integer;"
      "create function min_stock(item) -> integer;"
      "create function consume_freq(item) -> integer;"
      "create function supplies(supplier) -> item;"
      "create function delivery_time(item, supplier) -> integer;"
      "create function threshold(item i) -> integer as"
      "  select consume_freq(i) * delivery_time(i, s) + min_stock(i)"
      "  for each supplier s where supplies(s) = i;"
      "create rule monitor_items() as"
      "  when for each item i where quantity(i) < threshold(i)"
      "  do set quantity(i) = max_stock(i);"
      "create item instances :a, :b, :c;"
      "create supplier instances :s1, :s2, :s3;"
      "set supplies(:s1) = :a; set supplies(:s2) = :b;"
      "set supplies(:s3) = :c;"
      "set consume_freq(:a) = 20; set consume_freq(:b) = 20;"
      "set consume_freq(:c) = 20;"
      "set delivery_time(:a, :s1) = 2; set delivery_time(:b, :s2) = 3;"
      "set delivery_time(:c, :s3) = 2;"
      "set min_stock(:a) = 100; set min_stock(:b) = 100;"
      "set min_stock(:c) = 100;"
      "set max_stock(:a) = 5000; set max_stock(:b) = 5000;"
      "set max_stock(:c) = 5000;"
      "set quantity(:a) = 1000; set quantity(:b) = 1000;"
      "set quantity(:c) = 1000;"
      "commit;"
      "activate monitor_items();");
  ASSERT_TRUE(setup.ok()) << setup.status();

  auto before =
      session.Execute("set quantity(:a) = 100; explain analyze commit;");
  ASSERT_TRUE(before.ok()) << before.status();
  ASSERT_TRUE(session.Execute("analyze rule monitor_items;").ok());
  auto after =
      session.Execute("set quantity(:b) = 100; explain analyze commit;");
  ASSERT_TRUE(after.ok()) << after.status();

  EXPECT_EQ(StripTimes(before->report), R"(EXPLAIN ANALYZE
clause action:monitor_items: ?(i, _G1) <- max_stock(i, _G1)
  invocations: 1
  rank  literal                              access                 est.rows     actual      sel      tried         time  flag
     1  max_stock(i, _G1)                    scan                        3.0          1    1.000          1
clause cnd_monitor_items#0: cnd_monitor_items(i) <- quantity(i, _G1) AND threshold(i, _G2) AND _G1 < _G2
  invocations: 2
  rank  literal                              access                 est.rows     actual      sel      tried         time  flag
     1  quantity(i, _G1)                     scan                        6.0          2    1.000          2
     2  threshold(i, _G2)                    probe/1                     6.0          2    1.000          2
     3  _G1 < _G2                            compare                     3.0          0    0.000          2
clause threshold#0: threshold(i, _G7) <- supplies(s, _G2) AND _G2 = i AND consume_freq(i, _G3) AND delivery_time(i, s, _G4) AND _G5 = _G3 * _G4 AND min_stock(i, _G6) AND _G7 = _G5 + _G6
  invocations: 2
  rank  literal                              access                 est.rows     actual      sel      tried         time  flag
     1  supplies(s, _G2)                     scan                        6.0          2    1.000          2
     2  _G2 = i                              compare                     6.0          2    1.000          2
     3  delivery_time(i, s, _G4)             probe/2                     0.2          2    1.000          2
     4  consume_freq(i, _G3)                 probe/1                     0.1          2    1.000          2
     5  _G5 = _G3 * _G4                      arith                       0.1          2    1.000          2
     6  min_stock(i, _G6)                    probe/1                     0.0          2    1.000          2
     7  _G7 = _G5 + _G6                      arith                       0.0          2    1.000          2
clause Δ+cnd_monitor_items/Δ+quantity#0: cnd_monitor_items(i) <- Δ+quantity(i, _G1) AND supplies(s', _G2') AND _G2' = i AND consume_freq(i, _G3') AND delivery_time(i, s', _G4') AND _G5' = _G3' * _G4' AND min_stock(i, _G6') AND _G2 = _G5' + _G6' AND _G1 < _G2
  invocations: 2
  rank  literal                              access                 est.rows     actual      sel      tried         time  flag
     1  Δ+quantity(i, _G1)                  delta+                      2.0          2    1.000          2
     2  _G2' = i                             compare                     2.0          2    1.000          2
     3  supplies(s', _G2')                   hash-join/build             0.6          2    1.000          2
     4  delivery_time(i, s', _G4')           hash-join/build             0.0          2    1.000          2
     5  consume_freq(i, _G3')                hash-join/build             0.0          2    1.000          2
     6  _G5' = _G3' * _G4'                   arith                       0.0          2    1.000          2
     7  min_stock(i, _G6')                   hash-join/build             0.0          2    1.000          2
     8  _G2 = _G5' + _G6'                    arith                       0.0          2    1.000          2
     9  _G1 < _G2                            compare                     0.0          1    0.500          2
clause Δ-cnd_monitor_items/Δ-quantity#0: cnd_monitor_items(i) <- Δ-quantity(i, _G1) AND supplies_old(s', _G2') AND _G2' = i AND consume_freq_old(i, _G3') AND delivery_time_old(i, s', _G4') AND _G5' = _G3' * _G4' AND min_stock_old(i, _G6') AND _G2 = _G5' + _G6' AND _G1 < _G2
  invocations: 2
  rank  literal                              access                 est.rows     actual      sel      tried         time  flag
     1  Δ-quantity(i, _G1)                  delta-                      2.0          2    1.000          2
     2  _G2' = i                             compare                     2.0          2    1.000          2
     3  supplies_old(s', _G2')               hash-join/build             0.6          2    1.000          2
     4  delivery_time_old(i, s', _G4')       hash-join/build             0.0          2    1.000          2
     5  consume_freq_old(i, _G3')            hash-join/build             0.0          2    1.000          2
     6  _G5' = _G3' * _G4'                   arith                       0.0          2    1.000          2
     7  min_stock_old(i, _G6')               hash-join/build             0.0          2    1.000          2
     8  _G2 = _G5' + _G6'                    arith                       0.0          2    1.000          2
     9  _G1 < _G2                            compare                     0.0          1    0.500          2
)");
  EXPECT_EQ(StripTimes(after->report), R"(EXPLAIN ANALYZE
clause action:monitor_items: ?(i, _G1) <- max_stock(i, _G1)
  invocations: 1
  rank  literal                              access                 est.rows     actual      sel      tried         time  flag
     1  max_stock(i, _G1)                    scan                        3.0          1    1.000          1
clause cnd_monitor_items#0: cnd_monitor_items(i) <- quantity(i, _G1) AND threshold(i, _G2) AND _G1 < _G2
  invocations: 2
  rank  literal                              access                 est.rows     actual      sel      tried         time  flag
     1  quantity(i, _G1)                     scan                        6.0          2    1.000          2
     2  threshold(i, _G2)                    probe/1                    60.0          2    1.000          2  MISEST
     3  _G1 < _G2                            compare                    30.0          0    0.000          2  MISEST
clause threshold#0: threshold(i, _G7) <- supplies(s, _G2) AND _G2 = i AND consume_freq(i, _G3) AND delivery_time(i, s, _G4) AND _G5 = _G3 * _G4 AND min_stock(i, _G6) AND _G7 = _G5 + _G6
  invocations: 2
  rank  literal                              access                 est.rows     actual      sel      tried         time  flag
     1  supplies(s, _G2)                     scan                        6.0          2    1.000          2
     2  _G2 = i                              compare                     6.0          2    1.000          2
     3  consume_freq(i, _G3)                 probe/1                    18.0          2    1.000          2  MISEST
     4  delivery_time(i, s, _G4)             probe/2                    54.0          2    1.000          2  MISEST
     5  _G5 = _G3 * _G4                      arith                      54.0          2    1.000          2  MISEST
     6  min_stock(i, _G6)                    probe/1                   162.0          2    1.000          2  MISEST
     7  _G7 = _G5 + _G6                      arith                     162.0          2    1.000          2  MISEST
clause Δ+cnd_monitor_items/Δ+quantity#0: cnd_monitor_items(i) <- Δ+quantity(i, _G1) AND supplies(s', _G2') AND _G2' = i AND consume_freq(i, _G3') AND delivery_time(i, s', _G4') AND _G5' = _G3' * _G4' AND min_stock(i, _G6') AND _G2 = _G5' + _G6' AND _G1 < _G2
  invocations: 2
  rank  literal                              access                 est.rows     actual      sel      tried         time  flag
     1  Δ+quantity(i, _G1)                  delta+                      2.0          2    1.000          2
     2  _G2' = i                             compare                     2.0          2    1.000          2
     3  delivery_time(i, s', _G4')           semijoin-filtered           0.6          2    1.000          2
     4  supplies(s', _G2')                   hash-join/probe             0.0          2    1.000          2
     5  consume_freq(i, _G3')                hash-join/build             0.1          2    1.000          2
     6  _G5' = _G3' * _G4'                   arith                       0.1          2    1.000          2
     7  min_stock(i, _G6')                   hash-join/build             0.2          2    1.000          2
     8  _G2 = _G5' + _G6'                    arith                       0.2          2    1.000          2
     9  _G1 < _G2                            compare                     0.1          1    0.500          2
clause Δ-cnd_monitor_items/Δ-quantity#0: cnd_monitor_items(i) <- Δ-quantity(i, _G1) AND supplies_old(s', _G2') AND _G2' = i AND consume_freq_old(i, _G3') AND delivery_time_old(i, s', _G4') AND _G5' = _G3' * _G4' AND min_stock_old(i, _G6') AND _G2 = _G5' + _G6' AND _G1 < _G2
  invocations: 2
  rank  literal                              access                 est.rows     actual      sel      tried         time  flag
     1  Δ-quantity(i, _G1)                  delta-                      2.0          2    1.000          2
     2  _G2' = i                             compare                     2.0          2    1.000          2
     3  delivery_time_old(i, s', _G4')       semijoin-filtered           0.6          2    1.000          2
     4  supplies_old(s', _G2')               hash-join/probe             0.0          2    1.000          2
     5  consume_freq_old(i, _G3')            hash-join/build             0.1          2    1.000          2
     6  _G5' = _G3' * _G4'                   arith                       0.1          2    1.000          2
     7  min_stock_old(i, _G6')               hash-join/build             0.2          2    1.000          2
     8  _G2 = _G5' + _G6'                    arith                       0.2          2    1.000          2
     9  _G1 < _G2                            compare                     0.1          1    0.500          2
)");

  // Both commits fired the rule.
  auto rows = session.Execute("select quantity(:a), quantity(:b);");
  ASSERT_TRUE(rows.ok()) << rows.status();
  ASSERT_EQ(rows->rows.size(), 1u);
  EXPECT_EQ(rows->rows[0], (Tuple{Value(5000), Value(5000)}));
}

TEST(ShowMetricsPrometheusTest, RendersExpositionFormat) {
  obs::SetEnabled(true);
  Engine engine;
  Session session(engine);
  auto r = session.Execute(
      "create type item;"
      "create item instances :a;"
      "commit;"
      "show metrics prometheus;");
  ASSERT_TRUE(r.ok()) << r.status();
  EXPECT_NE(r->report.find("# TYPE"), std::string::npos) << r->report;
  EXPECT_NE(r->report.find("db_commits"), std::string::npos) << r->report;
  // No "METRICS" header: the output is pure exposition text.
  EXPECT_EQ(r->report.find("METRICS"), std::string::npos) << r->report;
}

#endif  // DELTAMON_OBS_ENABLED

}  // namespace
}  // namespace deltamon::amosql
