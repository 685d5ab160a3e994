/// Edge cases of the propagation algorithm: multi-root networks with shared
/// substructure, three-level chains, disjunction (union) conditions with
/// the §7.2 union checks, wave-front discarding, and trace/stat details.

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <map>
#include <memory>
#include <set>
#include <string_view>

#include "bench_util/inventory.h"
#include "common/thread_pool.h"
#include "core/materialized_views.h"
#include "core/network.h"
#include "core/propagator.h"
#include "rules/engine.h"

namespace deltamon::core {
namespace {

using objectlog::Clause;
using objectlog::CompareOp;
using objectlog::Literal;
using objectlog::Term;

ColumnType IntCol() { return ColumnType{ValueKind::kInt, kInvalidTypeId}; }
Tuple T(int64_t a) { return Tuple{Value(a)}; }
Tuple T(int64_t a, int64_t b) { return Tuple{Value(a), Value(b)}; }

/// base b0(x,y); v1(x,y) <- b0(x,y); v2(x) <- v1(x,y), y > 10;
/// roots r1(x) <- v2(x)  and  r2(x) <- v1(x,y) — shared substructure.
class MultiRootFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    b0_ = *engine_.db.catalog().CreateStoredFunction(
        "b0", FunctionSignature{{IntCol()}, {IntCol()}});
    v1_ = Derived("v1", 2);
    v2_ = Derived("v2", 1);
    r1_ = Derived("r1", 1);
    r2_ = Derived("r2", 1);
    Define(v1_, {Term::Var(0), Term::Var(1)},
           {Literal::Relation(b0_, {Term::Var(0), Term::Var(1)})}, 2);
    Define(v2_, {Term::Var(0)},
           {Literal::Relation(v1_, {Term::Var(0), Term::Var(1)}),
            Literal::Compare(CompareOp::kGt, Term::Var(1),
                             Term::Const(Value(10)))},
           2);
    Define(r1_, {Term::Var(0)},
           {Literal::Relation(v2_, {Term::Var(0)})}, 1);
    Define(r2_, {Term::Var(0)},
           {Literal::Relation(v1_, {Term::Var(0), Term::Var(1)})}, 2);
    engine_.db.MarkMonitored(b0_);
  }

  RelationId Derived(const std::string& name, size_t arity) {
    FunctionSignature sig;
    for (size_t i = 0; i < arity; ++i) sig.result_types.push_back(IntCol());
    return *engine_.db.catalog().CreateDerivedFunction(name, std::move(sig));
  }

  void Define(RelationId rel, std::vector<Term> head,
              std::vector<Literal> body, int num_vars) {
    Clause c;
    c.head_relation = rel;
    c.head_args = std::move(head);
    c.body = std::move(body);
    c.num_vars = num_vars;
    ASSERT_TRUE(
        engine_.registry.Define(rel, std::move(c), engine_.db.catalog()).ok());
  }

  Result<PropagationResult> Run(const BuildOptions& options) {
    RootSpec s1{r1_, true, true};
    RootSpec s2{r2_, true, true};
    auto net = PropagationNetwork::Build({s1, s2}, engine_.registry,
                                         engine_.db.catalog(), options);
    if (!net.ok()) return net.status();
    network_ = std::make_unique<PropagationNetwork>(std::move(*net));
    Propagator prop(engine_.db, engine_.registry, *network_);
    return prop.Propagate(engine_.db.PendingDeltas());
  }

  Engine engine_;
  RelationId b0_, v1_, v2_, r1_, r2_;
  std::unique_ptr<PropagationNetwork> network_;
};

TEST_F(MultiRootFixture, BothRootsReceiveDeltas) {
  ASSERT_TRUE(engine_.db.Insert(b0_, T(1, 50)).ok());
  ASSERT_TRUE(engine_.db.Insert(b0_, T(2, 5)).ok());
  auto result = Run({});
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  // r1 requires y > 10: only x=1. r2 takes everything.
  EXPECT_EQ(result->root_deltas.at(r1_), DeltaSet({T(1)}, {}));
  EXPECT_EQ(result->root_deltas.at(r2_), DeltaSet({T(1), T(2)}, {}));
}

TEST_F(MultiRootFixture, SharedBushySubstructureIsOneNode) {
  BuildOptions options;
  options.keep = {v1_, v2_};
  ASSERT_TRUE(engine_.db.Insert(b0_, T(1, 50)).ok());
  auto result = Run(options);
  ASSERT_TRUE(result.ok());
  // v1 appears once in the network even though both roots reach it.
  EXPECT_EQ(network_->nodes().count(v1_), 1u);
  // Levels: b0=0, v1=1, v2=2, r1=3, r2=2.
  EXPECT_EQ(network_->node(v1_)->level, 1);
  EXPECT_EQ(network_->node(v2_)->level, 2);
  EXPECT_EQ(network_->node(r1_)->level, 3);
  EXPECT_EQ(network_->node(r2_)->level, 2);
  EXPECT_EQ(result->root_deltas.at(r1_), DeltaSet({T(1)}, {}));
  EXPECT_EQ(result->root_deltas.at(r2_), DeltaSet({T(1)}, {}));
}

TEST_F(MultiRootFixture, WaveFrontDiscardsIntermediateDeltas) {
  BuildOptions options;
  options.keep = {v1_, v2_};
  for (int i = 0; i < 50; ++i) {
    ASSERT_TRUE(engine_.db.Insert(b0_, T(i, 50)).ok());
  }
  auto result = Run(options);
  ASSERT_TRUE(result.ok());
  // The wave carried Δv1 (50) and Δv2 (50) but never both plus the roots
  // at once beyond the peak; and the peak is bounded by live Δ-sets, not
  // by materialized views (which are zero here).
  EXPECT_GT(result->stats.peak_wavefront_tuples, 0u);
  EXPECT_LE(result->stats.peak_wavefront_tuples, 200u);
  EXPECT_EQ(result->stats.materialized_resident_tuples, 0u);
}

TEST_F(MultiRootFixture, TraceRecordsPerDifferentialCounts) {
  ASSERT_TRUE(engine_.db.Insert(b0_, T(1, 50)).ok());
  auto result = Run({});
  ASSERT_TRUE(result.ok());
  ASSERT_FALSE(result->trace.empty());
  for (const TraceEntry& e : result->trace) {
    EXPECT_EQ(e.influent, b0_);
    EXPECT_EQ(e.tuples_consumed, 1u);
    EXPECT_FALSE(e.ToString(engine_.db.catalog()).empty());
  }
  // Explain() filters per root.
  auto why1 = result->Explain(r1_);
  ASSERT_EQ(why1.size(), 1u);
  EXPECT_TRUE(why1[0].produces_plus);
}

/// The wave-front schedule a network fixes: every derived non-root node is
/// listed exactly once, under its last parent in levels() order; base and
/// root nodes are never listed.
void ExpectDiscardSchedule(const PropagationNetwork& net) {
  std::set<RelationId> roots;
  for (const RootSpec& root : net.roots()) roots.insert(root.relation);
  std::map<RelationId, RelationId> released_by;
  std::map<RelationId, RelationId> last_parent;
  for (const std::vector<RelationId>& level : net.levels()) {
    for (RelationId rel : level) {
      for (RelationId child : net.node(rel)->releases) {
        EXPECT_TRUE(released_by.emplace(child, rel).second)
            << "node " << child << " is released twice";
      }
      for (size_t edge : net.node(rel)->in_edges) {
        last_parent[net.differentials()[edge].influent] = rel;
      }
    }
  }
  for (const auto& [rel, node] : net.nodes()) {
    if (node.is_base || roots.contains(rel)) {
      EXPECT_FALSE(released_by.contains(rel)) << "node " << rel;
    } else {
      ASSERT_TRUE(released_by.contains(rel)) << "node " << rel;
      EXPECT_EQ(released_by.at(rel), last_parent.at(rel)) << "node " << rel;
    }
  }
}

TEST_F(MultiRootFixture, NetworkFixesTheDiscardSchedule) {
  BuildOptions options;
  options.keep = {v1_, v2_};
  auto net = PropagationNetwork::Build(
      {RootSpec{r1_, true, true}, RootSpec{r2_, true, false},
       RootSpec{r1_, true, false}},
      engine_.registry, engine_.db.catalog(), options);
  ASSERT_TRUE(net.ok()) << net.status().ToString();
  ExpectDiscardSchedule(*net);
  // Levels: b0 | v1 | v2 r2 | r1. v1's last reader is r2, v2's is r1.
  using Ids = std::vector<RelationId>;
  EXPECT_EQ(net->node(b0_)->releases, Ids{});
  EXPECT_EQ(net->node(v1_)->releases, Ids{});
  EXPECT_EQ(net->node(v2_)->releases, Ids{});
  EXPECT_EQ(net->node(r2_)->releases, Ids{v1_});
  EXPECT_EQ(net->node(r1_)->releases, Ids{v2_});
  // The strict flag comes from the first RootSpec naming the root.
  EXPECT_TRUE(net->node(r1_)->strict_root);
  EXPECT_FALSE(net->node(r2_)->strict_root);
  EXPECT_FALSE(net->node(v1_)->strict_root);
  EXPECT_FALSE(net->node(v2_)->strict_root);

  // The node-sharing inventory network (§7.1): threshold is released by
  // the condition, its only parent.
  Engine inventory;
  auto schema =
      workload::BuildInventory(inventory, workload::InventoryConfig{});
  ASSERT_TRUE(schema.ok()) << schema.status().ToString();
  BuildOptions keep_threshold;
  keep_threshold.keep.insert(schema->threshold);
  auto bushy = PropagationNetwork::Build(
      {RootSpec{schema->cnd_monitor_items, true, true}}, inventory.registry,
      inventory.db.catalog(), keep_threshold);
  ASSERT_TRUE(bushy.ok()) << bushy.status().ToString();
  ExpectDiscardSchedule(*bushy);
  EXPECT_EQ(bushy->node(schema->cnd_monitor_items)->releases,
            Ids{schema->threshold});
  EXPECT_EQ(bushy->node(schema->threshold)->releases, Ids{});
  EXPECT_TRUE(bushy->node(schema->cnd_monitor_items)->strict_root);
}

/// One pinned propagation run: what every wave returned, and the NodeStats
/// tallies the run left on its network.
struct PinRun {
  std::string waves;  ///< sorted root Δ-sets, trace and Stats, per wave
  std::string nodes;  ///< NodeStats in level order, cumulative_ns aside
};

std::string SortedRows(const TupleSet& rows) {
  std::vector<Tuple> sorted(rows.begin(), rows.end());
  std::sort(sorted.begin(), sorted.end());
  std::string out = "{";
  for (const Tuple& t : sorted) {
    if (out.size() > 1) out += " ";
    out += t.ToString();
  }
  return out + "}";
}

std::string RenderWave(const PropagationResult& result,
                       const Catalog& catalog) {
  std::map<std::string, const DeltaSet*> roots;
  for (const auto& [rel, delta] : result.root_deltas) {
    roots.emplace(catalog.RelationName(rel), &delta);
  }
  std::string out;
  for (const auto& [name, delta] : roots) {
    out += "  root " + name + " +" + SortedRows(delta->plus()) + " -" +
           SortedRows(delta->minus()) + "\n";
  }
  for (const TraceEntry& e : result.trace) {
    out += "  " + e.ToString(catalog) + "\n";
  }
  const PropagationResult::Stats& s = result.stats;
  out += "  executed=" + std::to_string(s.differentials_executed) +
         " skipped=" + std::to_string(s.differentials_skipped) +
         " propagated=" + std::to_string(s.tuples_propagated) +
         " peak=" + std::to_string(s.peak_wavefront_tuples) +
         " filtered+=" + std::to_string(s.filtered_plus) +
         " filtered-=" + std::to_string(s.filtered_minus) +
         " resident=" + std::to_string(s.materialized_resident_tuples) + "\n";
  return out;
}

std::string RenderNodeStats(const PropagationNetwork& network,
                            const Catalog& catalog) {
  std::string out;
  for (const std::vector<RelationId>& level : network.levels()) {
    for (RelationId rel : level) {
      const NodeStats& s = network.node(rel)->stats;
      out += catalog.RelationName(rel) +
             " inv=" + std::to_string(s.invocations.load()) +
             " consumed=" + std::to_string(s.tuples_consumed.load()) +
             " plus=" + std::to_string(s.plus_produced.load()) +
             " minus=" + std::to_string(s.minus_produced.load()) + "\n";
    }
  }
  return out;
}

/// Propagates a fixed sequence of transactions twice per wave — with no
/// pool and on four workers, each over its own copy of the network (and
/// its own view store when `materialize`) — then commits. `waves[i]`
/// applies the i-th transaction's updates.
std::vector<PinRun> RunPinnedWaves(
    Engine& engine, const std::vector<RootSpec>& roots,
    const BuildOptions& options, bool materialize,
    const std::vector<std::function<void()>>& waves) {
  const Catalog& catalog = engine.db.catalog();
  common::ThreadPool pool4(4);
  common::ThreadPool* pools[] = {nullptr, &pool4};
  std::vector<std::unique_ptr<PropagationNetwork>> nets;
  std::vector<std::unique_ptr<MaterializedViewStore>> stores;
  for (size_t i = 0; i < 2; ++i) {
    auto net = PropagationNetwork::Build(roots, engine.registry, catalog,
                                         options);
    EXPECT_TRUE(net.ok()) << net.status().ToString();
    if (!net.ok()) return {};
    nets.push_back(std::make_unique<PropagationNetwork>(std::move(*net)));
    for (RelationId rel : nets.back()->BaseInfluents()) {
      engine.db.MarkMonitored(rel);
    }
    stores.push_back(nullptr);
    if (materialize) {
      stores.back() = std::make_unique<MaterializedViewStore>();
      EXPECT_TRUE(
          stores.back()->Initialize(*nets.back(), engine.db, engine.registry)
              .ok());
    }
  }
  std::vector<PinRun> runs(2);
  for (size_t w = 0; w < waves.size(); ++w) {
    waves[w]();
    const auto deltas = engine.db.TakePendingDeltas();
    for (size_t i = 0; i < 2; ++i) {
      PropagationOptions popts;
      popts.pool = pools[i];
      Propagator prop(engine.db, engine.registry, *nets[i], stores[i].get(),
                      popts);
      auto result = prop.Propagate(deltas);
      EXPECT_TRUE(result.ok()) << result.status().ToString();
      if (!result.ok()) continue;
      runs[i].waves += "wave " + std::to_string(w) + "\n";
      runs[i].waves += RenderWave(*result, catalog);
    }
    EXPECT_TRUE(engine.db.Commit().ok());
  }
  for (size_t i = 0; i < 2; ++i) {
    runs[i].nodes = RenderNodeStats(*nets[i], catalog);
  }
  return runs;
}

/// Both runs must reproduce the pinned transcript byte for byte. NodeStats
/// are only kept while instrumentation is compiled in.
void ExpectPinned(const std::vector<PinRun>& runs, std::string_view waves,
                  [[maybe_unused]] std::string_view nodes) {
  ASSERT_EQ(runs.size(), 2u);
  for (size_t i = 0; i < runs.size(); ++i) {
    SCOPED_TRACE(i == 0 ? "no pool" : "4 workers");
    EXPECT_EQ(runs[i].waves, waves);
#if DELTAMON_OBS_ENABLED
    EXPECT_EQ(runs[i].nodes, nodes);
#endif
  }
}

/// Pins the observable output of fixed wave sequences — sorted root
/// Δ-sets, the TraceEntry sequence, every Stats field and each node's
/// NodeStats tallies — to recorded values. ThreadDeterminismTest compares
/// thread counts with each other; this compares against fixed values, so
/// it also catches a change that moves every thread count the same way.
class WavePinTest : public MultiRootFixture {
 protected:
  std::vector<RootSpec> BushyRoots() const {
    return {RootSpec{r1_, true, true}, RootSpec{r2_, true, true}};
  }
  BuildOptions BushyOptions() const {
    BuildOptions options;
    options.keep = {v1_, v2_};
    return options;
  }
  /// Inserts, strict-filtered re-insertions, deletions that another row
  /// keeps derivable, an update across the v2 threshold and plain
  /// deletions, over b0.
  std::vector<std::function<void()>> BushyWaves() {
    auto ins = [this](int64_t x, int64_t y) {
      ASSERT_TRUE(engine_.db.Insert(b0_, T(x, y)).ok());
    };
    auto del = [this](int64_t x, int64_t y) {
      ASSERT_TRUE(engine_.db.Delete(b0_, T(x, y)).ok());
    };
    return {
        [=] { ins(1, 50); ins(2, 5); ins(3, 20); },
        [=] { ins(1, 60); del(3, 20); ins(4, 11); },
        [=] { del(1, 50); del(2, 5); ins(2, 15); },
        [=] { del(1, 60); del(4, 11); ins(5, 1); },
    };
  }
};

constexpr char kBushyWaves[] = R"(wave 0
  root r1 +{(1) (3)} -{}
  root r2 +{(1) (2) (3)} -{}
  Δ+v1/Δ+b0: 3 -> 3 tuples
  Δ+v2/Δ+v1: 3 -> 2 tuples
  Δ+r2/Δ+v1: 3 -> 3 tuples
  Δ+r1/Δ+v2: 2 -> 2 tuples
  executed=4 skipped=4 propagated=10 peak=8 filtered+=0 filtered-=0 resident=0
wave 1
  root r1 +{(4)} -{(3)}
  root r2 +{(4)} -{(3)}
  Δ+v1/Δ+b0: 2 -> 2 tuples
  Δ-v1/Δ-b0: 1 -> 1 tuples
  Δ+v2/Δ+v1: 2 -> 2 tuples
  Δ-v2/Δ-v1: 1 -> 1 tuples
  Δ+r2/Δ+v1: 2 -> 2 tuples
  Δ-r2/Δ-v1: 1 -> 1 tuples
  Δ+r1/Δ+v2: 2 -> 2 tuples
  Δ-r1/Δ-v2: 1 -> 1 tuples
  executed=8 skipped=0 propagated=12 peak=8 filtered+=2 filtered-=0 resident=0
wave 2
  root r1 +{(2)} -{}
  root r2 +{} -{}
  Δ+v1/Δ+b0: 1 -> 1 tuples
  Δ-v1/Δ-b0: 2 -> 2 tuples
  Δ+v2/Δ+v1: 1 -> 1 tuples
  Δ-v2/Δ-v1: 2 -> 1 tuples
  Δ+r2/Δ+v1: 1 -> 1 tuples
  Δ-r2/Δ-v1: 2 -> 2 tuples
  Δ+r1/Δ+v2: 1 -> 1 tuples
  executed=7 skipped=1 propagated=9 peak=4 filtered+=1 filtered-=3 resident=0
wave 3
  root r1 +{} -{(1) (4)}
  root r2 +{(5)} -{(1) (4)}
  Δ+v1/Δ+b0: 1 -> 1 tuples
  Δ-v1/Δ-b0: 2 -> 2 tuples
  Δ+v2/Δ+v1: 1 -> 0 tuples
  Δ-v2/Δ-v1: 2 -> 2 tuples
  Δ+r2/Δ+v1: 1 -> 1 tuples
  Δ-r2/Δ-v1: 2 -> 2 tuples
  Δ-r1/Δ-v2: 2 -> 2 tuples
  executed=7 skipped=1 propagated=10 peak=8 filtered+=0 filtered-=0 resident=0
)";
constexpr char kBushyNodes[] = R"(b0 inv=0 consumed=0 plus=0 minus=0
v1 inv=4 consumed=12 plus=7 minus=5
v2 inv=4 consumed=12 plus=5 minus=3
r2 inv=4 consumed=12 plus=5 minus=3
r1 inv=4 consumed=8 plus=4 minus=3
)";

TEST_F(WavePinTest, BushyNetwork) {
  ExpectPinned(
      RunPinnedWaves(engine_, BushyRoots(), BushyOptions(), false,
                     BushyWaves()),
      kBushyWaves, kBushyNodes);
}

constexpr char kBushyViewsWaves[] = R"(wave 0
  root r1 +{(1) (3)} -{}
  root r2 +{(1) (2) (3)} -{}
  Δ+v1/Δ+b0: 3 -> 3 tuples
  Δ+v2/Δ+v1: 3 -> 2 tuples
  Δ+r2/Δ+v1: 3 -> 3 tuples
  Δ+r1/Δ+v2: 2 -> 2 tuples
  executed=4 skipped=4 propagated=10 peak=8 filtered+=0 filtered-=0 resident=10
wave 1
  root r1 +{(4)} -{(3)}
  root r2 +{(4)} -{(3)}
  Δ+v1/Δ+b0: 2 -> 2 tuples
  Δ-v1/Δ-b0: 1 -> 1 tuples
  Δ+v2/Δ+v1: 2 -> 2 tuples
  Δ-v2/Δ-v1: 1 -> 1 tuples
  Δ+r2/Δ+v1: 2 -> 2 tuples
  Δ-r2/Δ-v1: 1 -> 1 tuples
  Δ+r1/Δ+v2: 1 -> 1 tuples
  Δ-r1/Δ-v2: 1 -> 1 tuples
  executed=8 skipped=0 propagated=11 peak=7 filtered+=2 filtered-=0 resident=11
wave 2
  root r1 +{(2)} -{}
  root r2 +{} -{}
  Δ+v1/Δ+b0: 1 -> 1 tuples
  Δ-v1/Δ-b0: 2 -> 2 tuples
  Δ+v2/Δ+v1: 1 -> 1 tuples
  Δ-v2/Δ-v1: 2 -> 1 tuples
  Δ+r2/Δ+v1: 1 -> 1 tuples
  Δ-r2/Δ-v1: 2 -> 2 tuples
  Δ+r1/Δ+v2: 1 -> 1 tuples
  executed=7 skipped=1 propagated=9 peak=4 filtered+=1 filtered-=3 resident=12
wave 3
  root r1 +{} -{(1) (4)}
  root r2 +{(5)} -{(1) (4)}
  Δ+v1/Δ+b0: 1 -> 1 tuples
  Δ-v1/Δ-b0: 2 -> 2 tuples
  Δ+v2/Δ+v1: 1 -> 0 tuples
  Δ-v2/Δ-v1: 2 -> 2 tuples
  Δ+r2/Δ+v1: 1 -> 1 tuples
  Δ-r2/Δ-v1: 2 -> 2 tuples
  Δ-r1/Δ-v2: 2 -> 2 tuples
  executed=7 skipped=1 propagated=10 peak=8 filtered+=0 filtered-=0 resident=6
)";
constexpr char kBushyViewsNodes[] = R"(b0 inv=0 consumed=0 plus=0 minus=0
v1 inv=4 consumed=12 plus=7 minus=5
v2 inv=4 consumed=12 plus=4 minus=3
r2 inv=4 consumed=12 plus=5 minus=3
r1 inv=4 consumed=7 plus=4 minus=3
)";

TEST_F(WavePinTest, BushyNetworkWithMaterializedViews) {
  ExpectPinned(
      RunPinnedWaves(engine_, BushyRoots(), BushyOptions(), true,
                     BushyWaves()),
      kBushyViewsWaves, kBushyViewsNodes);
}

constexpr char kAggregateWaves[] = R"(wave 0
  root hot +{(1) (2)} -{}
  Δ+top/Δ+src: 3 -> 2 tuples
  Δ+hot/Δ+top: 2 -> 2 tuples
  executed=2 skipped=1 propagated=4 peak=4 filtered+=0 filtered-=0 resident=0
wave 1
  root hot +{} -{(2)}
  Δ+top/Δ+src: 3 -> 4 tuples
  Δ+hot/Δ+top: 2 -> 1 tuples
  Δ-hot/Δ-top: 2 -> 2 tuples
  executed=3 skipped=0 propagated=7 peak=5 filtered+=1 filtered-=1 resident=0
wave 2
  root hot +{(3)} -{}
  Δ+top/Δ+src: 2 -> 4 tuples
  Δ+hot/Δ+top: 2 -> 2 tuples
  Δ-hot/Δ-top: 2 -> 1 tuples
  executed=3 skipped=0 propagated=7 peak=5 filtered+=1 filtered-=1 resident=0
wave 3
  root hot +{} -{(1) (3)}
  Δ+top/Δ+src: 3 -> 3 tuples
  Δ+hot/Δ+top: 1 -> 0 tuples
  Δ-hot/Δ-top: 2 -> 2 tuples
  executed=3 skipped=0 propagated=5 peak=5 filtered+=0 filtered-=0 resident=0
)";
constexpr char kAggregateNodes[] = R"(src inv=0 consumed=0 plus=0 minus=0
top inv=4 consumed=11 plus=7 minus=6
hot inv=4 consumed=13 plus=3 minus=3
)";

TEST_F(WavePinTest, AggregateNode) {
  // top(k, m) = max v over src(k, v); hot(k) <- top(k, m), m > 10.
  Catalog& cat = engine_.db.catalog();
  RelationId src = *cat.CreateStoredFunction(
      "src", FunctionSignature{{IntCol()}, {IntCol()}});
  RelationId top = Derived("top", 2);
  RelationId hot = Derived("hot", 1);
  objectlog::AggregateDef def;
  def.source = src;
  def.group_by = {0};
  def.value_column = 1;
  def.func = objectlog::AggregateDef::Func::kMax;
  ASSERT_TRUE(engine_.registry.DefineAggregate(top, std::move(def), cat).ok());
  Define(hot, {Term::Var(0)},
         {Literal::Relation(top, {Term::Var(0), Term::Var(1)}),
          Literal::Compare(CompareOp::kGt, Term::Var(1),
                           Term::Const(Value(10)))},
         2);
  auto ins = [&](int64_t k, int64_t v) {
    ASSERT_TRUE(engine_.db.Insert(src, T(k, v)).ok());
  };
  auto del = [&](int64_t k, int64_t v) {
    ASSERT_TRUE(engine_.db.Delete(src, T(k, v)).ok());
  };
  ExpectPinned(
      RunPinnedWaves(engine_, {RootSpec{hot, true, true}}, {}, false,
                     {
                         [&] { ins(1, 5); ins(1, 20); ins(2, 30); },
                         [&] { ins(1, 25); del(2, 30); ins(3, 8); },
                         [&] { del(1, 25); ins(3, 12); },
                         [&] { del(1, 20); del(1, 5); del(3, 12); },
                     }),
      kAggregateWaves, kAggregateNodes);
}

constexpr char kClosureWaves[] = R"(wave 0
  root tc +{(1, 2) (1, 3) (1, 4) (2, 3) (2, 4) (3, 4)} -{}
  Δ+tc/Δ+edge: 3 -> 3 tuples
  Δ+tc/Δ+edge: 3 -> 3 tuples
  Δ+tc/Δ+tc: 6 -> 3 tuples
  executed=3 skipped=3 propagated=9 peak=6 filtered+=0 filtered-=0 resident=0
wave 1
  root tc +{(1, 5) (2, 5) (3, 5) (4, 5) (10, 11)} -{}
  Δ+tc/Δ+edge: 3 -> 3 tuples
  Δ+tc/Δ+edge: 3 -> 2 tuples
  Δ+tc/Δ+tc: 5 -> 1 tuples
  Δ+tc/Δ+tc: 1 -> 2 tuples
  Δ+tc/Δ+tc: 1 -> 1 tuples
  executed=5 skipped=5 propagated=9 peak=5 filtered+=2 filtered-=0 resident=0
wave 2
  root tc +{} -{(2, 3) (2, 4) (2, 5)}
  Δ-tc/Δ-edge: 1 -> 1 tuples
  Δ-tc/Δ-edge: 1 -> 2 tuples
  Δ-tc/Δ-tc: 3 -> 3 tuples
  executed=3 skipped=3 propagated=6 peak=3 filtered+=0 filtered-=3 resident=0
wave 3
  root tc +{(10, 1) (10, 2) (11, 1) (11, 2)} -{(1, 3) (1, 4) (1, 5)}
  Δ+tc/Δ+edge: 1 -> 1 tuples
  Δ-tc/Δ-edge: 1 -> 1 tuples
  Δ+tc/Δ+edge: 1 -> 1 tuples
  Δ-tc/Δ-edge: 1 -> 2 tuples
  Δ+tc/Δ+tc: 2 -> 2 tuples
  Δ-tc/Δ-tc: 3 -> 0 tuples
  Δ+tc/Δ+tc: 2 -> 0 tuples
  executed=7 skipped=1 propagated=7 peak=7 filtered+=0 filtered-=0 resident=0
)";
constexpr char kClosureNodes[] = R"(edge inv=0 consumed=0 plus=0 minus=0
tc inv=4 consumed=41 plus=15 minus=6
)";

TEST_F(WavePinTest, TransitiveClosureWithDeletion) {
  // tc(x, y) <- edge(x, y)  |  tc(x, y) <- edge(x, z), tc(z, y).
  RelationId edge = *engine_.db.catalog().CreateStoredFunction(
      "edge", FunctionSignature{{IntCol()}, {IntCol()}});
  RelationId tc = Derived("tc", 2);
  Define(tc, {Term::Var(0), Term::Var(1)},
         {Literal::Relation(edge, {Term::Var(0), Term::Var(1)})}, 2);
  Define(tc, {Term::Var(0), Term::Var(2)},
         {Literal::Relation(edge, {Term::Var(0), Term::Var(1)}),
          Literal::Relation(tc, {Term::Var(1), Term::Var(2)})},
         3);
  auto ins = [&](int64_t x, int64_t y) {
    ASSERT_TRUE(engine_.db.Insert(edge, T(x, y)).ok());
  };
  auto del = [&](int64_t x, int64_t y) {
    ASSERT_TRUE(engine_.db.Delete(edge, T(x, y)).ok());
  };
  ExpectPinned(
      RunPinnedWaves(engine_, {RootSpec{tc, true, true}}, {}, false,
                     {
                         [&] { ins(1, 2); ins(2, 3); ins(3, 4); },
                         [&] { ins(4, 5); ins(10, 11); ins(1, 3); },
                         [&] { del(2, 3); },
                         [&] { del(1, 3); ins(11, 1); },
                     }),
      kClosureWaves, kClosureNodes);
}

/// Union condition: u(x) <- a(x)  |  u(x) <- b(x) — the §7.2 union checks.
class UnionConditionTest : public ::testing::Test {
 protected:
  void SetUp() override {
    a_ = *engine_.db.catalog().CreateStoredFunction(
        "a", FunctionSignature{{IntCol()}, {}});
    b_ = *engine_.db.catalog().CreateStoredFunction(
        "b", FunctionSignature{{IntCol()}, {}});
    u_ = *engine_.db.catalog().CreateDerivedFunction(
        "u", FunctionSignature{{}, {IntCol()}});
    for (RelationId base : {a_, b_}) {
      Clause c;
      c.head_relation = u_;
      c.num_vars = 1;
      c.head_args = {Term::Var(0)};
      c.body = {Literal::Relation(base, {Term::Var(0)})};
      ASSERT_TRUE(
          engine_.registry.Define(u_, std::move(c), engine_.db.catalog())
              .ok());
    }
    engine_.db.MarkMonitored(a_);
    engine_.db.MarkMonitored(b_);
  }

  Result<PropagationResult> Run(bool strict = true) {
    RootSpec root{u_, true, strict};
    auto net = PropagationNetwork::Build({root}, engine_.registry,
                                         engine_.db.catalog());
    if (!net.ok()) return net.status();
    network_ = std::make_unique<PropagationNetwork>(std::move(*net));
    Propagator prop(engine_.db, engine_.registry, *network_);
    return prop.Propagate(engine_.db.PendingDeltas());
  }

  Engine engine_;
  RelationId a_, b_, u_;
  std::unique_ptr<PropagationNetwork> network_;
};

TEST_F(UnionConditionTest, DeletingOneBranchWhileOtherHoldsIsFiltered) {
  ASSERT_TRUE(engine_.db.Insert(a_, T(1)).ok());
  ASSERT_TRUE(engine_.db.Insert(b_, T(1)).ok());
  ASSERT_TRUE(engine_.db.Commit().ok());
  // Remove only the a-branch: u(1) stays true via b.
  ASSERT_TRUE(engine_.db.Delete(a_, T(1)).ok());
  auto result = Run();
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->root_deltas.at(u_).empty());
  EXPECT_GE(result->stats.filtered_minus, 1u);
}

TEST_F(UnionConditionTest, InsertIntoSecondBranchIsStrictFiltered) {
  ASSERT_TRUE(engine_.db.Insert(a_, T(1)).ok());
  ASSERT_TRUE(engine_.db.Commit().ok());
  ASSERT_TRUE(engine_.db.Insert(b_, T(1)).ok());  // already true via a
  auto strict = Run(true);
  ASSERT_TRUE(strict.ok());
  EXPECT_TRUE(strict->root_deltas.at(u_).empty());
  auto nervous = Run(false);
  ASSERT_TRUE(nervous.ok());
  EXPECT_EQ(nervous->root_deltas.at(u_).plus().size(), 1u);
}

TEST_F(UnionConditionTest, SwappingBranchesIsNoNetChange) {
  ASSERT_TRUE(engine_.db.Insert(a_, T(1)).ok());
  ASSERT_TRUE(engine_.db.Commit().ok());
  // One transaction: retract from a, assert into b.
  ASSERT_TRUE(engine_.db.Delete(a_, T(1)).ok());
  ASSERT_TRUE(engine_.db.Insert(b_, T(1)).ok());
  auto result = Run();
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->root_deltas.at(u_).empty());
}

TEST_F(UnionConditionTest, MovingBothBranchesOutDeletes) {
  ASSERT_TRUE(engine_.db.Insert(a_, T(1)).ok());
  ASSERT_TRUE(engine_.db.Insert(b_, T(1)).ok());
  ASSERT_TRUE(engine_.db.Commit().ok());
  ASSERT_TRUE(engine_.db.Delete(a_, T(1)).ok());
  ASSERT_TRUE(engine_.db.Delete(b_, T(1)).ok());
  auto result = Run();
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->root_deltas.at(u_), DeltaSet({}, {T(1)}));
}

/// Self-join condition: two occurrences of the same influent produce one
/// differential per occurrence.
TEST(SelfJoinTest, BothOccurrencesGetDifferentials) {
  Engine engine;
  RelationId e = *engine.db.catalog().CreateStoredFunction(
      "edge", FunctionSignature{{IntCol()}, {IntCol()}});
  RelationId p = *engine.db.catalog().CreateDerivedFunction(
      "path2", FunctionSignature{{}, {IntCol(), IntCol()}});
  Clause c;
  c.head_relation = p;
  c.num_vars = 3;
  c.head_args = {Term::Var(0), Term::Var(2)};
  c.body = {Literal::Relation(e, {Term::Var(0), Term::Var(1)}),
            Literal::Relation(e, {Term::Var(1), Term::Var(2)})};
  ASSERT_TRUE(engine.registry.Define(p, std::move(c),
                                     engine.db.catalog()).ok());
  engine.db.MarkMonitored(e);

  RootSpec root{p, true, true};
  auto net = PropagationNetwork::Build({root}, engine.registry,
                                       engine.db.catalog());
  ASSERT_TRUE(net.ok());
  // 2 occurrences × 2 polarities = 4 differentials.
  EXPECT_EQ(net->differentials().size(), 4u);

  ASSERT_TRUE(engine.db.Insert(e, T(1, 2)).ok());
  ASSERT_TRUE(engine.db.Insert(e, T(2, 3)).ok());
  Propagator prop(engine.db, engine.registry, *net);
  auto result = prop.Propagate(engine.db.PendingDeltas());
  ASSERT_TRUE(result.ok());
  // One new edge pair derives (1,3); both occurrences contribute without
  // duplicating the result (set semantics).
  EXPECT_EQ(result->root_deltas.at(p), DeltaSet({T(1, 3)}, {}));
}

TEST(EmptyNetworkTest, NoRootsMeansEmptyResult) {
  Engine engine;
  auto net = PropagationNetwork::Build({}, engine.registry,
                                       engine.db.catalog());
  ASSERT_TRUE(net.ok());
  Propagator prop(engine.db, engine.registry, *net);
  auto result = prop.Propagate({});
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->root_deltas.empty());
}

TEST(NetworkErrorsTest, BaseRelationAsRootRejected) {
  Engine engine;
  RelationId b = *engine.db.catalog().CreateStoredFunction(
      "b", FunctionSignature{{IntCol()}, {}});
  RootSpec root{b, true, true};
  auto net = PropagationNetwork::Build({root}, engine.registry,
                                       engine.db.catalog());
  EXPECT_FALSE(net.ok());
}

}  // namespace
}  // namespace deltamon::core
