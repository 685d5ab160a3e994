/// Session observability commands: `profile <statement>;` reports the
/// metric delta and wall time of exactly that statement, `show metrics;`
/// dumps the global registry, `reset metrics;` zeroes it, `trace <stmt>;`
/// records hierarchical spans into a Chrome-trace file, and
/// `show network [rule];` renders the propagation network with per-node
/// attribution. All ride on QueryResult::report so they compose with
/// ordinary statements in one script.

#include <gtest/gtest.h>

#include <string>

#include "amosql/session.h"
#include "obs/flight_recorder.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "obs/report.h"
#include "obs/trace.h"

namespace deltamon::amosql {
namespace {

class ProfileTest : public ::testing::Test {
 protected:
  void SetUp() override {
    obs::SetEnabled(true);
    auto r = session_.Execute(
        "create type item;"
        "create function quantity(item) -> integer;"
        "create rule watch_low() as"
        "  when for each item i where quantity(i) < 10"
        "  do set quantity(i) = 10;"
        "create item instances :a, :b;"
        "set quantity(:a) = 42;"
        "set quantity(:b) = 42;"
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

TEST_F(ProfileTest, ShowMetricsDumpsRegistry) {
  std::string report = Report(
      "set quantity(:a) = 7;"
      "commit;"
      "show metrics;");
  EXPECT_NE(report.find("METRICS"), std::string::npos);
#if DELTAMON_OBS_ENABLED
  // The commit just ran a check phase, so rule metrics exist by now.
  EXPECT_NE(report.find("rules.check_phases"), std::string::npos) << report;
#endif
}

TEST_F(ProfileTest, ProfileCommitReportsMetricDelta) {
  std::string report = Report(
      "set quantity(:a) = 5;"
      "profile commit;");
  EXPECT_NE(report.find("PROFILE"), std::string::npos);
  EXPECT_NE(report.find("ms"), std::string::npos);
#if DELTAMON_OBS_ENABLED
  // The profiled commit triggered the rule: the delta must show the
  // propagator at work, not lifetime totals (a fresh session's first
  // commit and a later one report comparable numbers).
  EXPECT_NE(report.find("propagator.waves"), std::string::npos) << report;
  EXPECT_NE(report.find("db.commits"), std::string::npos) << report;
  // The differentials that actually ran are spelled out for the trigger.
  EXPECT_NE(report.find("differentials:"), std::string::npos) << report;
  EXPECT_NE(report.find("Δ"), std::string::npos) << report;
#endif
  // The rule fired and restocked the item.
  auto rows = session_.Execute("select quantity(:a);");
  ASSERT_TRUE(rows.ok());
  ASSERT_EQ(rows->rows.size(), 1u);
  EXPECT_EQ(rows->rows[0][0], Value(10));
}

TEST_F(ProfileTest, ProfileSelectReportsEvalWork) {
  std::string report = Report("profile select i for each item i;");
  EXPECT_NE(report.find("PROFILE"), std::string::npos);
#if DELTAMON_OBS_ENABLED
  EXPECT_NE(report.find("eval."), std::string::npos) << report;
#endif
}

TEST_F(ProfileTest, ProfilePropagatesInnerStatementErrors) {
  auto r = session_.Execute("profile select nonsense_fn(:a);");
  EXPECT_FALSE(r.ok());
}

TEST_F(ProfileTest, ProfileParsesNestedAndReportsInOrder) {
  // profile profile commit; — inner profile runs, outer wraps it.
  std::string report = Report(
      "set quantity(:b) = 3;"
      "profile profile commit;");
  size_t first = report.find("PROFILE");
  ASSERT_NE(first, std::string::npos);
  EXPECT_NE(report.find("PROFILE", first + 1), std::string::npos);
}

TEST_F(ProfileTest, ResetMetricsZeroesTheRegistryForCleanProfiles) {
  Report(
      "set quantity(:a) = 7;"
      "commit;");
#if DELTAMON_OBS_ENABLED
  ASSERT_GT(
      obs::Registry::Global().GetCounter("rules.check_phases")->value(), 0u);
#endif
  std::string report = Report("reset metrics;");
  EXPECT_NE(report.find("METRICS RESET"), std::string::npos);
#if DELTAMON_OBS_ENABLED
  EXPECT_EQ(
      obs::Registry::Global().GetCounter("rules.check_phases")->value(), 0u);
  // Metrics accumulate again from zero, so the next profile's delta is
  // also an absolute count.
  Report(
      "set quantity(:a) = 3;"
      "commit;");
  EXPECT_EQ(
      obs::Registry::Global().GetCounter("rules.check_phases")->value(), 1u);
#endif
}

TEST_F(ProfileTest, TraceWritesChromeTraceFileAndPrintsSpanTree) {
  const std::string path = ::testing::TempDir() + "/profile_test_trace.json";
  std::string report = Report(
      "set quantity(:a) = 5;"
      "trace \"" + path + "\" commit;");
  EXPECT_NE(report.find("TRACE " + path), std::string::npos) << report;

  auto text = obs::ReadTextFile(path);
  ASSERT_TRUE(text.ok()) << text.status();
  auto doc = obs::Json::Parse(*text);
  ASSERT_TRUE(doc.ok()) << doc.status();
  ASSERT_NE(doc->Get("traceEvents"), nullptr);
  ASSERT_TRUE(doc->Get("traceEvents")->is_array());
#if DELTAMON_OBS_ENABLED
  // The deferred check path nests check phase -> round -> wave -> node;
  // the tree printer indents two spaces per level.
  EXPECT_NE(report.find("rules.check_phase "), std::string::npos) << report;
  EXPECT_NE(report.find("\n  rules.round "), std::string::npos) << report;
  EXPECT_NE(report.find("propagation.wave "), std::string::npos) << report;
  EXPECT_NE(report.find("propagation.node:"), std::string::npos) << report;
  // Which differential ran and which rule fired are spans, not events.
  EXPECT_NE(report.find("propagation.Δ"), std::string::npos) << report;
  EXPECT_NE(report.find("rules.fire:"), std::string::npos) << report;
  EXPECT_GT(doc->Get("traceEvents")->size(), 3u);
#else
  EXPECT_NE(report.find("(no spans recorded)"), std::string::npos) << report;
#endif
}

TEST_F(ProfileTest, TraceRestoresThePreviousSinkAndPropagatesErrors) {
  const std::string path = ::testing::TempDir() + "/profile_test_err.json";
  auto r = session_.Execute("trace \"" + path + "\" select nonsense_fn(:a);");
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(obs::GetTraceSink(), nullptr)
      << "a failing traced statement must still uninstall its sink";
}

TEST_F(ProfileTest, ShowSlowRendersTheGlobalSlowLog) {
  obs::SlowLog::Global().Clear();
  obs::SlowLog::Global().set_threshold_ns(0);
  // Empty log: the report still explains itself.
  std::string report = Report("show slow;");
  EXPECT_NE(report.find("SLOW STATEMENTS"), std::string::npos) << report;
  EXPECT_NE(report.find("threshold off, 0 recorded"), std::string::npos)
      << report;

  // The log is a process global: an entry recorded by the server-side
  // executor is visible from this (local) session too.
  obs::SlowRecord slow;
  slow.context.trace_id = 5;
  slow.context.connection_id = 2;
  slow.context.statement_ordinal = 1;
  slow.statement = "commit;";
  slow.elapsed_ns = 12'000'000;
  slow.span_tree = "rules.check_phase 12ms\n";
  obs::SlowLog::Global().Record(slow);
  report = Report("show slow;");
  EXPECT_NE(report.find("[trace 5] conn 2 stmt 1: 12.000 ms"),
            std::string::npos)
      << report;
  EXPECT_NE(report.find("rules.check_phase"), std::string::npos) << report;
  obs::SlowLog::Global().Clear();
}

TEST_F(ProfileTest, ShowNetworkDumpsTopologyStatsAndDot) {
  // Drive one check phase so node attribution is nonzero.
  Report(
      "set quantity(:a) = 5;"
      "commit;"
      "show network;");
  std::string report = Report("show network;");
  EXPECT_NE(report.find("NETWORK"), std::string::npos);
  EXPECT_NE(report.find("digraph propagation"), std::string::npos) << report;
  EXPECT_NE(report.find("cnd_watch_low"), std::string::npos) << report;
  EXPECT_NE(report.find("quantity"), std::string::npos) << report;
  EXPECT_NE(report.find("inv="), std::string::npos) << report;
}

TEST_F(ProfileTest, ShowNetworkRestrictsToOneRule) {
  std::string report = Report("show network watch_low;");
  EXPECT_NE(report.find("digraph propagation"), std::string::npos) << report;
  EXPECT_NE(report.find("cnd_watch_low"), std::string::npos) << report;

  auto bad = session_.Execute("show network no_such_rule;");
  EXPECT_FALSE(bad.ok());
}

}  // namespace
}  // namespace deltamon::amosql
