#include "obs/provenance.h"

#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "obs/wave_recorder.h"

namespace deltamon::obs {
namespace {

// The value/tuple codec and the logs are plain data structures with no
// engine dependency, so these tests run identically in OBS=ON and OBS=OFF
// builds: they construct BoundedLogs directly, which exist in both.

TEST(WaveCodecTest, EveryValueKindRoundTrips) {
  const std::vector<Value> values = {
      Value(),                              // null
      Value(true),
      Value(false),
      Value(int64_t{-42}),
      Value(0.1),                           // not exactly representable
      Value(1e308),
      Value(-0.0),
      Value(std::string("hello \"w\"orld\n")),
      Value(std::string()),
      Value(Oid{7, TypeId{3}}),
  };
  for (const Value& v : values) {
    auto back = ValueFromJson(ValueToJson(v));
    ASSERT_TRUE(back.ok()) << back.status().ToString();
    EXPECT_EQ(back->kind(), v.kind()) << v.ToString();
    EXPECT_EQ(back->ToString(), v.ToString());
  }
}

TEST(WaveCodecTest, DoublesRoundTripBitExactly) {
  // %.17g guarantees a shortest-exact rendering: parsing it back must
  // reproduce the identical bits, or replay comparisons would drift.
  for (double d : {0.1, 1.0 / 3.0, 6.02214076e23, 5e-324}) {
    auto back = ValueFromJson(ValueToJson(Value(d)));
    ASSERT_TRUE(back.ok());
    EXPECT_EQ(back->ToString(), Value(d).ToString());
  }
}

TEST(WaveCodecTest, TupleRoundTripsAndRejectsGarbage) {
  Tuple t{Value(int64_t{1}), Value("x"), Value(2.5)};
  auto back = TupleFromJson(TupleToJson(t));
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_EQ(*back, t);

  EXPECT_FALSE(TupleFromJson(Json(int64_t{3})).ok());
  auto bad_cell = Json::Array();
  bad_cell.Append(Json("not a cell"));
  EXPECT_FALSE(TupleFromJson(bad_cell).ok());
}

WaveRecord SampleWave(uint64_t seq, uint64_t round) {
  WaveRecord w;
  w.seq = seq;
  w.trace_id = 0xabcdef;
  w.version = 12;
  w.round = round;
  w.threads = 4;
  w.kernels = false;
  WaveRelationDelta d;
  d.relation = "quantity";
  d.plus = {Tuple{Value(int64_t{7}), Value(int64_t{50})}};
  d.minus = {Tuple{Value(int64_t{7}), Value(int64_t{40})}};
  w.influents.push_back(d);
  WaveRelationDelta root;
  root.relation = "cnd";
  root.plus = {Tuple{Value(int64_t{7})}};
  w.roots.push_back(root);
  w.firings = {"monitor (7)"};
  return w;
}

TEST(WaveRecordTest, ToJsonFromJsonRoundTrips) {
  const WaveRecord w = SampleWave(3, 1);
  auto back = WaveRecord::FromJson(w.ToJson());
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_EQ(back->seq, w.seq);
  EXPECT_EQ(back->trace_id, w.trace_id);
  EXPECT_EQ(back->version, w.version);
  EXPECT_EQ(back->round, w.round);
  EXPECT_EQ(back->threads, w.threads);
  EXPECT_EQ(back->kernels, w.kernels);
  EXPECT_EQ(back->influents, w.influents);
  EXPECT_EQ(back->roots, w.roots);
  EXPECT_EQ(back->firings, w.firings);
  EXPECT_EQ(back->ToJson().Dump(), w.ToJson().Dump());
}

TEST(WaveRecordTest, OutcomeJsonExcludesIdentityAndSettings) {
  WaveRecord a = SampleWave(1, 1);
  WaveRecord b = SampleWave(99, 1);
  b.trace_id = 0;
  b.version = 0;
  b.threads = 8;
  b.kernels = true;
  // Same outcome under different identity stamps and settings: the
  // replay comparison must not see a difference.
  EXPECT_EQ(a.OutcomeJson().Dump(), b.OutcomeJson().Dump());
  b.firings.push_back("monitor (8)");
  EXPECT_NE(a.OutcomeJson().Dump(), b.OutcomeJson().Dump());
}

TEST(WaveFileTest, DumpParsesBackExactly) {
  std::vector<WaveRecord> waves = {SampleWave(1, 1), SampleWave(2, 2)};
  const Json file = WaveFileJson(waves, /*enabled=*/true, /*capacity=*/64,
                                 /*total=*/2, /*dropped=*/0);
  EXPECT_EQ(file.Get("schema")->as_string(), "deltamon.wave.v1");
  auto back = ParseWaveFile(file.Dump());
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  ASSERT_EQ(back->size(), 2u);
  EXPECT_EQ(back->at(0).ToJson().Dump(), waves[0].ToJson().Dump());
  EXPECT_EQ(back->at(1).ToJson().Dump(), waves[1].ToJson().Dump());
}

TEST(WaveFileTest, RejectsWrongSchemaAndMalformedInput) {
  EXPECT_FALSE(ParseWaveFile("not json").ok());
  EXPECT_FALSE(ParseWaveFile("{}").ok());
  Json file = WaveFileJson({}, true, 64, 0, 0);
  file.Set("schema", "deltamon.wave.v2");
  EXPECT_FALSE(ParseWaveFile(file.Dump()).ok());
}

TEST(WaveRecorderTest, RingOverflowKeepsNewestAndCountsDrops) {
  WaveRecorder recorder(2);
  recorder.set_enabled(true);
  for (uint64_t i = 0; i < 5; ++i) recorder.Record(SampleWave(0, i + 1));
  EXPECT_EQ(recorder.total_records(), 5u);
  EXPECT_EQ(recorder.dropped_records(), 3u);
  auto snapshot = recorder.Snapshot();
  ASSERT_EQ(snapshot.size(), 2u);
  // seq is assigned by Record and survives the overflow.
  EXPECT_EQ(snapshot[0].seq, 4u);
  EXPECT_EQ(snapshot[1].seq, 5u);
  recorder.Clear();
  EXPECT_TRUE(recorder.Snapshot().empty());
  EXPECT_EQ(recorder.total_records(), 0u);
}

FiringRecord SampleFiring(const std::string& rule) {
  FiringRecord r;
  r.rule = rule;
  r.round = 1;
  r.instances = {"(7)"};
  auto tree = Json::Object();
  tree.Set("relation", "cnd");
  auto lineage = Json::Array();
  lineage.Append(std::move(tree));
  r.lineage = std::move(lineage);
  r.captured_instances = 1;
  r.total_instances = 1;
  return r;
}

TEST(ProvenanceLogTest, RingOverflowKeepsNewestAndCountsDrops) {
  ProvenanceLog log(2);
  log.set_enabled(true);
  for (int i = 0; i < 3; ++i) log.Record(SampleFiring("r" + std::to_string(i)));
  EXPECT_EQ(log.total_records(), 3u);
  EXPECT_EQ(log.dropped_records(), 1u);
  auto snapshot = log.Snapshot();
  ASSERT_EQ(snapshot.size(), 2u);
  EXPECT_EQ(snapshot[0].rule, "r1");
  EXPECT_EQ(snapshot[0].seq, 2u);
  EXPECT_EQ(snapshot[1].rule, "r2");
  EXPECT_EQ(snapshot[1].seq, 3u);
}

TEST(ProvenanceLogTest, JsonDocumentCarriesCountersAndFirings) {
  const std::vector<FiringRecord> records = {SampleFiring("monitor")};
  const Json doc = ProvenanceJson(records, /*enabled=*/true, /*capacity=*/128,
                                  /*total=*/5, /*dropped=*/4);
  EXPECT_TRUE(doc.Get("enabled")->as_bool());
  EXPECT_EQ(doc.Get("capacity")->as_int(), 128);
  EXPECT_EQ(doc.Get("total_records")->as_int(), 5);
  EXPECT_EQ(doc.Get("dropped_records")->as_int(), 4);
  ASSERT_EQ(doc.Get("firings")->array_items().size(), 1u);
  EXPECT_EQ(doc.Get("firings")->at(0).Get("rule")->as_string(), "monitor");
}

TEST(ProvenanceLogTest, FormatMentionsRuleAndTruncation) {
  FiringRecord r = SampleFiring("monitor");
  r.captured_instances = 1;
  r.total_instances = 3;
  const std::string text =
      FormatProvenance({r}, /*enabled=*/true, /*total=*/1, /*dropped=*/0);
  EXPECT_NE(text.find("monitor"), std::string::npos);
  EXPECT_NE(text.find("(7)"), std::string::npos);

  const std::string empty =
      FormatProvenance({}, /*enabled=*/false, /*total=*/0, /*dropped=*/0);
  EXPECT_NE(empty.find("off"), std::string::npos);
}

}  // namespace
}  // namespace deltamon::obs
