// The benchmark's own tests: statistics, ratio bases, input determinism,
// and the correctness checker. Run with `python3 perfbench/run.py
// --self-test` (or ctest in the perfbench build directory).

#include <gtest/gtest.h>

#include <unordered_map>

#include "fixture.h"
#include "gen.h"
#include "report.h"
#include "stats.h"
#include "tracing.h"

namespace perfbench {
namespace {

using deltamon::Database;
using deltamon::Tuple;
using deltamon::Value;

std::vector<double> Iota(size_t n) {
  std::vector<double> v;
  for (size_t i = 1; i <= n; ++i) v.push_back(static_cast<double>(i));
  return v;
}

// --- Percentiles -------------------------------------------------------------

TEST(PercentileTest, NearestRank) {
  const std::vector<double> v = Iota(100);
  EXPECT_EQ(PercentileOfSorted(v, 50), 50);
  EXPECT_EQ(PercentileOfSorted(v, 99), 99);
  EXPECT_EQ(PercentileOfSorted(v, 100), 100);
  EXPECT_EQ(PercentileOfSorted(v, 0), 1);
  EXPECT_EQ(PercentileOfSorted({}, 50), 0);
}

TEST(PercentileTest, P99NeedsTenSamplesBeyondIt) {
  EXPECT_EQ(SamplesBeyond(1000, 99), 10u);
  EXPECT_EQ(SamplesBeyond(999, 99), 9u);

  const LatencySummary enough = Summarize(Iota(1000));
  EXPECT_EQ(enough.samples, 1000u);
  EXPECT_TRUE(enough.p99_supported);
  EXPECT_EQ(enough.tail_percentile, 99);
  EXPECT_EQ(enough.p99, 990);

  const LatencySummary few = Summarize(Iota(999));
  EXPECT_FALSE(few.p99_supported);
  EXPECT_EQ(few.tail_percentile, 95);

  const LatencySummary many = Summarize(Iota(100000));
  EXPECT_EQ(many.tail_percentile, 99.99);

  EXPECT_EQ(Summarize(Iota(5)).tail_percentile, 0);
}

TEST(PercentileTest, SummaryIgnoresInputOrder) {
  std::vector<double> v = Iota(2000);
  std::reverse(v.begin(), v.end());
  EXPECT_EQ(Summarize(v).p50, 1000);
}

TEST(ReportTest, P99DetailStatesSampleCountAndTail) {
  Report r;
  r.SetP99("x_p99_us", Iota(999));
  ASSERT_NE(r.Find("x_p99_us"), nullptr);
  const std::string& tail = r.Find("x_p99_us")->detail;
  EXPECT_NE(tail.find("n=999"), std::string::npos) << tail;
  EXPECT_NE(tail.find("9 beyond p99"), std::string::npos) << tail;
  EXPECT_NE(tail.find("highest supported p95"), std::string::npos) << tail;

  r.SetP99("y_p99_us", Iota(1000));
  EXPECT_EQ(r.Find("y_p99_us")->detail, "n=1000, 10 beyond p99");

  r.SetP99("z_p99_us", {});
  EXPECT_FALSE(r.Find("z_p99_us")->value.has_value());
}

// --- Ratios carry their base -------------------------------------------------

TEST(RatioTest, EveryRatioCarriesItsBase) {
  Report r;
  r.SetRatio("txn.txns_per_wave", "txns/wave",
             Ratio{30, 20, "txn.commits", "txn.batches"});
  const Metric* m = r.Find("txn.txns_per_wave");
  ASSERT_NE(m, nullptr);
  EXPECT_DOUBLE_EQ(*m->value, 1.5);
  EXPECT_EQ(m->detail, "txn.commits=30 / txn.batches=20");
}

TEST(RatioTest, ZeroBaseIsAbsentNotZeroOrInfinite) {
  Report r;
  r.SetRatio("rules.rounds_per_check", "rounds/check",
             Ratio{0, 0, "rules.incremental_rounds", "rules.check_phases"});
  EXPECT_FALSE(r.Find("rules.rounds_per_check")->value.has_value());
  const std::string line =
      ResultLine(r, {{"rules.rounds_per_check", "rounds/check"}}, true, 1, 0);
  EXPECT_NE(line.find("\"value\": null"), std::string::npos) << line;
}

TEST(ReportTest, ResultLineHasExactlyTheContractKeys) {
  Report r;
  r.Set("setup_s", "s", 0.8127);
  r.Set("extra", "s", 1.0);
  const std::string line =
      ResultLine(r, {{"setup_s", "s"}, {"commits_per_s", "1/s"}}, true, 1000, 0);
  EXPECT_EQ(line,
            "{\"correct\": true, \"attempted\": 1000, \"failed\": 0, "
            "\"metrics\": {\"setup_s\": {\"value\": 0.8127, \"unit\": \"s\"}, "
            "\"commits_per_s\": {\"value\": null, \"unit\": \"1/s\"}}}");
}

TEST(ReportTest, NumbersKeepAllTheirDigits) {
  EXPECT_EQ(FormatNumber(1.2034), "1.2034");
  EXPECT_EQ(FormatNumber(26989.86687728201), "26989.86687728201");
  EXPECT_EQ(FormatNumber(1.0 / 0.0), "null");
}

// --- Determinism of the generated inputs ---------------------------------------

std::string OltpText(uint64_t seed, int conn) {
  StoreSpec spec;
  OltpStream s(spec, seed, conn, 4);
  std::string out;
  for (int i = 0; i < 2000; ++i) {
    for (const std::string& r : s.Next().requests) out += r + "\n";
  }
  return out;
}

std::string MixText(uint64_t seed) {
  StoreSpec spec;
  WriterStream w(spec, seed, 256);
  ReaderStream r(spec, seed, 1);
  std::string out;
  for (int i = 0; i < 20; ++i) out += w.Next().request + "\n";
  for (int i = 0; i < 200; ++i) out += r.Next().request + "\n";
  return out;
}

std::string BulkText(uint64_t seed) {
  BulkStream s(BulkSpec{}, seed);
  std::string out;
  for (int i = 0; i < 200; ++i) out += s.Next().Describe();
  return out;
}

TEST(DeterminismTest, SameSeedGivesByteIdenticalInput) {
  EXPECT_EQ(OltpText(7, 0), OltpText(7, 0));
  EXPECT_EQ(OltpText(7, 3), OltpText(7, 3));
  EXPECT_EQ(MixText(7), MixText(7));
  EXPECT_EQ(BulkText(7), BulkText(7));
}

TEST(DeterminismTest, SeedsAndStreamsDiffer) {
  EXPECT_NE(OltpText(7, 0), OltpText(8, 0));
  EXPECT_NE(OltpText(7, 0), OltpText(7, 1));
  EXPECT_NE(MixText(7), MixText(8));
  EXPECT_NE(BulkText(7), BulkText(8));
}

// Models the store as the server would leave it after each commit.
TEST(GeneratorTest, EveryOltpWriteChangesTheStoredValue) {
  StoreSpec spec;
  std::unordered_map<int64_t, int64_t> stored;
  auto value_of = [&](int64_t key) {
    auto it = stored.find(key);
    return it == stored.end() ? InitialParams(3, key).quantity : it->second;
  };
  size_t hot = 0, below = 0, n = 0;
  for (int conn = 0; conn < 4; ++conn) {
    OltpStream s(spec, 3, conn, 4);
    for (int i = 0; i < 5000; ++i, ++n) {
      const OltpTxn t = s.Next();
      ASSERT_NE(t.value, value_of(t.key)) << "txn " << i << " of conn " << conn;
      if (t.hot) {
        ++hot;
        ASSERT_LT(t.key, spec.num_hot);
        stored[t.key] = t.value;
        continue;
      }
      ASSERT_GE(t.key, spec.num_hot);
      ASSERT_EQ((t.key - spec.num_hot) % 4, conn) << "own keys are disjoint";
      ASSERT_EQ(t.below, t.value < InitialParams(3, t.key).threshold());
      below += t.below;
      stored[t.key] = t.below ? kMaxStock : t.value;  // the rule restocks
    }
  }
  EXPECT_NEAR(static_cast<double>(hot) / n, 0.05, 0.01);
  EXPECT_NEAR(static_cast<double>(below) / (n - hot), 0.10, 0.015);
}

TEST(GeneratorTest, WriterChangesBothFunctionsOfEveryKey) {
  StoreSpec spec;
  WriterStream w(spec, 5, 256);
  std::unordered_map<int64_t, std::pair<int64_t, int64_t>> stored;
  for (int i = 0; i < 50; ++i) {
    const WriterTxn t = w.Next();
    ASSERT_EQ(t.keys.size(), 256u);
    size_t below = 0;
    for (size_t k = 0; k < t.keys.size(); ++k) {
      const ItemParams p = InitialParams(5, t.keys[k]);
      auto [it, fresh] =
          stored.try_emplace(t.keys[k], p.quantity, p.consume_freq);
      ASSERT_NE(t.quantity[k], it->second.first);
      ASSERT_NE(t.consume_freq[k], it->second.second);
      const int64_t threshold =
          t.consume_freq[k] * p.delivery_time + p.min_stock;
      const bool fires = t.quantity[k] < threshold;
      below += fires;
      it->second = {fires ? kMaxStock : t.quantity[k], t.consume_freq[k]};
    }
    ASSERT_EQ(below, t.below);
  }
}

TEST(GeneratorTest, BulkRoundsPredictFiringsAndChangeEveryValue) {
  BulkSpec spec;
  BulkStream s(spec, 9);
  BulkRound prev = s.Next();
  EXPECT_EQ(prev.newly_crossing, spec.crossing);
  for (int i = 0; i < 100; ++i) {
    const BulkRound r = s.Next();
    EXPECT_NE(r.quantity_above, prev.quantity_above);
    EXPECT_NE(r.delivery_time, prev.delivery_time);
    EXPECT_NE(r.consume_freq, prev.consume_freq);
    size_t fresh = 0;
    for (size_t c : r.crossing) {
      fresh += !std::binary_search(prev.crossing.begin(), prev.crossing.end(), c);
    }
    EXPECT_EQ(r.newly_crossing, fresh);
    EXPECT_EQ(r.probes.size(), spec.probes);
    for (size_t c : r.crossing) {
      EXPECT_TRUE(std::binary_search(r.probes.begin(), r.probes.end(), c));
    }
    prev = r;
  }
}

// --- The correctness checker -----------------------------------------------------

StoreSpec SmallSpec() {
  StoreSpec spec;
  spec.num_keys = 200;
  spec.num_hot = 2;
  spec.bucket_size = 50;
  return spec;
}

/// A history as two connections would commit it, and a store that applied
/// it: own keys in connection order, hot keys chained through their reads.
struct History {
  std::vector<std::vector<OltpCommit>> log;
  std::unique_ptr<Store> served;
};

History MakeHistory(const StoreSpec& spec, uint64_t seed) {
  History h;
  h.served = std::move(Store::Build(spec, seed).value());
  Database& db = h.served->engine().db;
  std::unordered_map<int64_t, int64_t> hot_value;
  h.log.resize(2);
  for (int conn = 0; conn < 2; ++conn) {
    OltpStream s(spec, seed, conn, 2);
    for (int i = 0; i < 300; ++i) {
      const OltpTxn t = s.Next();
      OltpCommit c{t.key, t.value, 0, t.hot, t.below};
      if (t.hot) {
        auto [it, fresh] =
            hot_value.try_emplace(t.key, InitialParams(seed, t.key).quantity);
        c.read_value = it->second;
        it->second = t.value;
      }
      EXPECT_TRUE(db.Set(h.served->quantity(), Tuple{Value(t.key)},
                         Tuple{Value(t.value)})
                      .ok());
      EXPECT_TRUE(db.Commit().ok());
      h.log[conn].push_back(c);
    }
  }
  return h;
}

TEST(CheckerTest, FaithfulHistoryPasses) {
  const StoreSpec spec = SmallSpec();
  History h = MakeHistory(spec, 11);
  EXPECT_GT(h.served->firings(), 0u);
  const std::vector<std::string> errors = CheckOltp(spec, 11, h.log, *h.served);
  EXPECT_TRUE(errors.empty()) << errors.front();
}

TEST(CheckerTest, CorruptedFinalStateIsFlagged) {
  const StoreSpec spec = SmallSpec();
  History h = MakeHistory(spec, 11);
  Database& db = h.served->engine().db;
  ASSERT_TRUE(db.Set(h.served->quantity(), Tuple{Value(int64_t{150})},
                     Tuple{Value(int64_t{123456})})
                  .ok());
  ASSERT_TRUE(db.Commit().ok());
  const std::vector<std::string> errors = CheckOltp(spec, 11, h.log, *h.served);
  ASSERT_FALSE(errors.empty());
  EXPECT_NE(errors.front().find("state differs"), std::string::npos)
      << errors.front();
}

TEST(CheckerTest, UnacknowledgedFiringIsFlagged) {
  const StoreSpec spec = SmallSpec();
  History h = MakeHistory(spec, 11);
  // A write the log does not contain: drops below the threshold, fires,
  // and the restock leaves the state exactly as before.
  Database& db = h.served->engine().db;
  ASSERT_TRUE(db.Set(h.served->quantity(), Tuple{Value(int64_t{100})},
                     Tuple{Value(int64_t{0})})
                  .ok());
  ASSERT_TRUE(db.Commit().ok());
  const std::vector<std::string> errors = CheckOltp(spec, 11, h.log, *h.served);
  bool firing_error = false;
  for (const std::string& e : errors) {
    firing_error = firing_error || e.starts_with("rule firings");
  }
  EXPECT_TRUE(firing_error);
}

TEST(CheckerTest, BrokenHotChainIsFlagged) {
  const StoreSpec spec = SmallSpec();
  History h = MakeHistory(spec, 11);
  for (auto& conn : h.log) {
    for (OltpCommit& c : conn) {
      if (c.hot) {
        c.read_value += 1;  // the read no longer names a committed value
        const std::vector<std::string> errors =
            CheckOltp(spec, 11, h.log, *h.served);
        ASSERT_FALSE(errors.empty());
        return;
      }
    }
  }
  FAIL() << "history has no hot commit";
}

TEST(CheckerTest, ReadWriteMixFlagsImpossibleReads) {
  const StoreSpec spec = SmallSpec();
  auto served = std::move(Store::Build(spec, 4).value());
  WriterStream w(spec, 4, 16);
  std::vector<WriterTxn> log;
  Database& db = served->engine().db;
  for (int i = 0; i < 10; ++i) {
    WriterTxn t = w.Next();
    for (size_t k = 0; k < t.keys.size(); ++k) {
      ASSERT_TRUE(db.Set(served->quantity(), Tuple{Value(t.keys[k])},
                         Tuple{Value(t.quantity[k])})
                      .ok());
      ASSERT_TRUE(db.Set(served->consume_freq(), Tuple{Value(t.keys[k])},
                         Tuple{Value(t.consume_freq[k])})
                      .ok());
    }
    ASSERT_TRUE(db.Commit().ok());
    log.push_back(std::move(t));
  }
  const std::vector<PointRead> good = {
      {7, InitialParams(4, 7).quantity}, {log[0].keys[0], kMaxStock}};
  EXPECT_TRUE(CheckReadWriteMix(spec, 4, log, good, 0, *served).empty());
  const std::vector<PointRead> bad = {{7, 42}};
  EXPECT_FALSE(CheckReadWriteMix(spec, 4, log, bad, 0, *served).empty());
  EXPECT_FALSE(CheckReadWriteMix(spec, 4, log, good, 1, *served).empty());
}

// --- Parsing and tracing helpers ---------------------------------------------------

TEST(ParseTest, IntRows) {
  EXPECT_EQ(ParseIntRow("(123)"), 123);
  EXPECT_EQ(ParseIntRow("(-5)"), -5);
  EXPECT_FALSE(ParseIntRow("(1, 2)").has_value());
  EXPECT_FALSE(ParseIntRow("()").has_value());
  EXPECT_FALSE(ParseIntRow("12").has_value());
}

TEST(ParseTest, TraceIdFromReport) {
  EXPECT_EQ(TraceIdFromReport("-- trace 42: queue 0.1 us, exec 3.0 us\n"), 42u);
  EXPECT_EQ(TraceIdFromReport("print: 1\n-- trace 7: queue 1 us\n"), 7u);
  EXPECT_EQ(TraceIdFromReport(""), 0u);
}

deltamon::obs::TraceEvent SpanEvent(const char* category, const char* name,
                                    int64_t id, int64_t parent, int64_t dur) {
  return deltamon::obs::TraceEvent{category,
                                   name,
                                   {{"span_id", id},
                                    {"parent_id", parent},
                                    {"thread", 1},
                                    {"start_ns", 0},
                                    {"dur_ns", dur}}};
}

TEST(ProgramSpanStatsTest, SelfTimeExcludesChildren) {
  ProgramSpanStats stats;
  stats.OnEvent(SpanEvent("eval", "clause:x", 3, 2, 1000));
  stats.OnEvent(SpanEvent("propagation", "node:cnd", 2, 1, 5000));
  stats.OnEvent(SpanEvent("propagation", "wave", 1, 0, 9000));
  stats.OnEvent(deltamon::obs::TraceEvent{"rules", "rule_fired", {}});
  const ProgramSpanStats::Totals t = stats.Take();
  EXPECT_EQ(t.spans, 3u);
  ASSERT_EQ(t.wave_us.size(), 1u);
  EXPECT_DOUBLE_EQ(t.wave_us[0], 9.0);
  EXPECT_DOUBLE_EQ(t.node_self_us, 4.0);
  ASSERT_EQ(t.clause_self_us.size(), 1u);
  EXPECT_DOUBLE_EQ(t.clause_self_us[0], 1.0);
}

TEST(SpanRecorderTest, NestsAndAttributesRequests) {
  SpanRecorder rec(3, true);
  {
    ScopedSpan outer(rec, "txn");
    ScopedSpan inner(rec, "net.execute");
    inner.set_request_id(99);
  }
  ASSERT_EQ(rec.spans().size(), 2u);
  EXPECT_EQ(rec.spans()[1].parent, rec.spans()[0].id);
  EXPECT_EQ(rec.spans()[1].request_id, 99u);
  EXPECT_LE(rec.spans()[0].start_ns, rec.spans()[1].start_ns);
  EXPECT_GE(rec.spans()[0].end_ns, rec.spans()[1].end_ns);

  SpanRecorder off(4, false);
  { ScopedSpan s(off, "txn"); }
  EXPECT_TRUE(off.spans().empty());
}

}  // namespace
}  // namespace perfbench
