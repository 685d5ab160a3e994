// Proves the data-plane hot paths stay allocation-free once warm: a global
// operator new hook counts heap allocations across a measured region. This
// lives in its own test binary so the hook cannot perturb other suites.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <functional>
#include <new>
#include <unordered_map>

#include "bench_util/inventory.h"
#include "common/column_table.h"
#include "common/tuple.h"
#include "common/value.h"
#include "delta/delta_set.h"
#include "delta/delta_view.h"
#include "objectlog/eval.h"
#include "obs/span.h"
#include "rules/engine.h"

namespace {

std::atomic<uint64_t> g_allocations{0};

}  // namespace

// The replacements are kept out of line: where GCC inlines one side of a
// new/delete pair, its -Wmismatched-new-delete pairs the inlined malloc()
// or free() with the other side's operator call and reports a mismatch.
[[gnu::noinline]] void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}

[[gnu::noinline]] void* operator new[](std::size_t size) {
  return ::operator new(size);
}

[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete[](void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}
[[gnu::noinline]] void operator delete[](void* p, std::size_t) noexcept {
  std::free(p);
}

namespace deltamon {
namespace {

// Sanitizers interpose their own allocator and may allocate internally
// (poisoning, shadow bookkeeping), making exact counts meaningless there.
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define DELTAMON_ALLOC_COUNTS_RELIABLE 0
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
#define DELTAMON_ALLOC_COUNTS_RELIABLE 0
#else
#define DELTAMON_ALLOC_COUNTS_RELIABLE 1
#endif
#else
#define DELTAMON_ALLOC_COUNTS_RELIABLE 1
#endif

uint64_t AllocCount() {
  return g_allocations.load(std::memory_order_relaxed);
}

TEST(AllocCountTest, HookSeesAllocations) {
  uint64_t before = AllocCount();
  auto* p = new int(42);
  uint64_t after = AllocCount();
  delete p;
#if DELTAMON_ALLOC_COUNTS_RELIABLE
  EXPECT_GT(after, before);
#else
  (void)before;
  (void)after;
  GTEST_SKIP() << "allocation counting unreliable under sanitizers";
#endif
}

TEST(AllocCountTest, WarmTupleSetProbeDoesNotAllocate) {
#if !DELTAMON_ALLOC_COUNTS_RELIABLE
  GTEST_SKIP() << "allocation counting unreliable under sanitizers";
#endif
  TupleSet s;
  for (int64_t i = 0; i < 1000; ++i) {
    s.insert(Tuple{Value(i), Value(i * 3)});
  }
  // Probes constructed before the measured region (building a Tuple
  // allocates its value vector; probing with it must not).
  Tuple hit{Value(int64_t{500}), Value(int64_t{1500})};
  Tuple miss{Value(int64_t{500}), Value(int64_t{1501})};

  uint64_t before = AllocCount();
  for (int rep = 0; rep < 100; ++rep) {
    ASSERT_TRUE(s.contains(hit));
    ASSERT_FALSE(s.contains(miss));
    ASSERT_NE(s.find(hit), s.end());
    ASSERT_EQ(s.find(miss), s.end());
    ASSERT_NE(s.IndexOf(hit), TupleSet::npos);
  }
  EXPECT_EQ(AllocCount(), before) << "warm probes must not touch the heap";
}

TEST(AllocCountTest, ApplyInsertCancelingPendingDeleteDoesNotAllocate) {
#if !DELTAMON_ALLOC_COUNTS_RELIABLE
  GTEST_SKIP() << "allocation counting unreliable under sanitizers";
#endif
  // An insert arriving after a pending delete of the same tuple cancels in
  // place: minus loses the tuple (swap-remove, no rehash) and plus is
  // untouched. This cancellation runs once per re-inserted tuple on the
  // transaction hot path, so it must be allocation-free.
  DeltaSet delta;
  Tuple t{Value(int64_t{7}), Value("cancel")};
  delta.ApplyDelete(t);
  ASSERT_TRUE(delta.minus().contains(t));

  uint64_t before = AllocCount();
  delta.ApplyInsert(t);
  EXPECT_EQ(AllocCount(), before)
      << "canceling a pending delete must not touch the heap";
  EXPECT_TRUE(delta.empty());
}

TEST(AllocCountTest, WarmEraseInsertCycleDoesNotAllocate) {
#if !DELTAMON_ALLOC_COUNTS_RELIABLE
  GTEST_SKIP() << "allocation counting unreliable under sanitizers";
#endif
  // Erase + reinsert of the same tuple at stable size: the dense vector
  // has capacity and the slot table never grows. The reinsert copies the
  // probe Tuple, whose vector copy does allocate — so move a fresh copy in
  // instead and measure only the set's own work.
  TupleSet s;
  s.reserve(64);
  for (int64_t i = 0; i < 50; ++i) s.insert(Tuple{Value(i)});
  Tuple victim{Value(int64_t{25})};
  Tuple replacement = victim;  // copied outside the measured region

  uint64_t before = AllocCount();
  ASSERT_EQ(s.erase(victim), 1u);
  ASSERT_TRUE(s.insert(std::move(replacement)).second);
  EXPECT_EQ(AllocCount(), before)
      << "stable-size erase/insert cycle must not touch the heap";
}

TEST(AllocCountTest, DeltaViewScanThroughStdFunctionDoesNotAllocate) {
#if !DELTAMON_ALLOC_COUNTS_RELIABLE
  GTEST_SKIP() << "allocation counting unreliable under sanitizers";
#endif
  // Stored relations take their scan visitor as a std::function, so the
  // visitor a Δ-set view hands over must fit its small buffer: a scan
  // through a rollback or overlay view allocates no more than a plain one.
  TupleSet base;
  for (int64_t i = 0; i < 20; ++i) base.insert(Tuple{Value(i)});
  // `base` is the NEW state after `delta`, and the OLD state before `undo`.
  DeltaSet delta(TupleSet{Tuple{Value(int64_t{3})}},
                 TupleSet{Tuple{Value(int64_t{99})}});
  DeltaSet undo(delta.minus(), delta.plus());
  auto scan = [&base](const std::function<bool(const Tuple&)>& visit) {
    for (const Tuple& t : base) {
      if (!visit(t)) return;
    }
  };
  size_t seen = 0;
  auto count = [&seen](const Tuple&) {
    ++seen;
    return true;
  };
  const ScanPattern all;

  uint64_t before = AllocCount();
  for (const DeltaView& view :
       {DeltaView(), DeltaView::Rollback(&delta), DeltaView::Forward(&undo)}) {
    view.Scan(all, [&scan](const auto& visit) { scan(visit); }, count);
  }
  EXPECT_EQ(AllocCount(), before) << "Δ-set view scans must not touch the heap";
  EXPECT_EQ(seen, 20u + 20u + 20u);
}

TEST(AllocCountTest, InactiveSpanWithLongNameAndKeyDoesNotAllocate) {
#if !DELTAMON_ALLOC_COUNTS_RELIABLE
  GTEST_SKIP() << "allocation counting unreliable under sanitizers";
#endif
  // With no sink installed a span is inactive. Every untraced propagation
  // wave opens spans whose names and field keys outgrow the small-string
  // buffer ("incremental_round", "base_influents_changed", ...); neither
  // may reach the heap unless a sink will read it.
  ASSERT_TRUE(obs::GetTraceSink() == nullptr);
  bool active = true;
  uint64_t before = AllocCount();
  {
    obs::Span span("rules", "a_span_name_longer_than_sso");
    span.AddField("a_field_key_longer_than_sso", 1);
    active = span.active();
  }
  EXPECT_EQ(AllocCount(), before) << "inactive spans must not touch the heap";
  EXPECT_FALSE(active);
}

TEST(AllocCountTest, ReserveOnUntypedColumnServesTheFirstKind) {
#if !DELTAMON_ALLOC_COUNTS_RELIABLE
  GTEST_SKIP() << "allocation counting unreliable under sanitizers";
#endif
  // An untyped column learns its representation from the first value, so
  // a Reserve before it must land on the vector that value selects.
  ColumnTable t(1);
  uint64_t before = AllocCount();
  t.Reserve(1000);
  for (uint64_t i = 0; i < 1000; ++i) {
    t.AppendCell(0, Value(Oid{i + 1, 1}));
    t.FinishRow();
  }
  EXPECT_EQ(AllocCount() - before, 1u)
      << "the reservation must be the only allocation";
  EXPECT_EQ(t.num_rows(), 1000u);
}

TEST(AllocCountTest, IsRecursiveIsALookup) {
#if !DELTAMON_ALLOC_COUNTS_RELIABLE
  GTEST_SKIP() << "allocation counting unreliable under sanitizers";
#endif
  // Every §7.2 point query asks whether its relation is recursive; the
  // registry answers from the reach it computed when the relations were
  // defined, without walking the definitions again.
  using objectlog::Clause;
  using objectlog::Literal;
  using objectlog::Term;
  Engine engine;
  Catalog& cat = engine.db.catalog();
  const ColumnType int_col{ValueKind::kInt, kInvalidTypeId};
  const FunctionSignature sig{{int_col}, {int_col}};
  RelationId stored = *cat.CreateStoredFunction("stored", sig);
  RelationId inner = *cat.CreateDerivedFunction("inner", sig);
  RelationId outer = *cat.CreateDerivedFunction("outer", sig);
  auto define = [&](RelationId head, RelationId read) {
    Clause clause;
    clause.head_relation = head;
    clause.num_vars = 2;
    clause.head_args = {Term::Var(0), Term::Var(1)};
    clause.body = {Literal::Relation(read, {Term::Var(0), Term::Var(1)})};
    return engine.registry.Define(head, std::move(clause), cat);
  };
  ASSERT_TRUE(define(inner, stored).ok());
  ASSERT_TRUE(define(outer, inner).ok());

  uint64_t before = AllocCount();
  const bool recursive = engine.registry.IsRecursive(outer);
  EXPECT_EQ(AllocCount(), before) << "IsRecursive must not touch the heap";
  EXPECT_FALSE(recursive);
}

TEST(AllocCountTest, WarmGetFnDoesNotAllocate) {
#if !DELTAMON_ALLOC_COUNTS_RELIABLE
  GTEST_SKIP() << "allocation counting unreliable under sanitizers";
#endif
  // The keyed read-back a client issues after each commit walks the
  // argument column's index directly: once the index exists, a read builds
  // no scan pattern and no std::function.
  Engine engine;
  workload::InventoryConfig config;
  config.num_items = 64;
  Result<workload::InventorySchema> schema =
      workload::BuildInventory(engine, config);
  ASSERT_TRUE(schema.ok()) << schema.status().ToString();
  const Oid item = schema->items[17];
  ASSERT_EQ(*workload::GetFn(engine, schema->quantity, item),
            config.initial_quantity);

  uint64_t before = AllocCount();
  int64_t sum = 0;
  for (int rep = 0; rep < 100; ++rep) {
    Result<int64_t> q = workload::GetFn(engine, schema->quantity, item);
    sum += q.ok() ? *q : -1;
  }
  EXPECT_EQ(AllocCount(), before) << "a warm GetFn must not touch the heap";
  EXPECT_EQ(sum, 100 * config.initial_quantity);
}

TEST(AllocCountTest, WaveWithoutBuildsAllocatesNoBuildSideStore) {
#if !DELTAMON_ALLOC_COUNTS_RELIABLE
  GTEST_SKIP() << "allocation counting unreliable under sanitizers";
#endif
  // Every propagation wave opens a store of shared build sides; a wave of
  // one-row differentials picks probe joins and builds nothing, so the
  // store must cost it nothing.
  uint64_t before = AllocCount();
  { objectlog::BuildSideStore store; }
  EXPECT_EQ(AllocCount(), before) << "an unused store must not touch the heap";
}

/// An oltp_net-shaped partial differential over a small inventory:
///   low(I, Q) <- Δ+quantity(I, Q), consume_freq(I, C),
///                delivery_time(I, D), min_stock(I, M),
///                X = C * D, T = X + M, Q < T
/// (every item's threshold is 10 * 2 + 50 = 70).
struct OltpDifferential {
  Engine engine;
  RelationId quantity = kInvalidRelationId;
  std::unordered_map<RelationId, DeltaSet> deltas;
  objectlog::Clause clause;

  OltpDifferential() {
    using objectlog::ArithOp;
    using objectlog::CompareOp;
    using objectlog::Literal;
    using objectlog::Term;
    Catalog& cat = engine.db.catalog();
    const ColumnType int_col{ValueKind::kInt, kInvalidTypeId};
    const FunctionSignature sig{{int_col}, {int_col}};
    quantity = *cat.CreateStoredFunction("quantity", sig);
    RelationId consume_freq = *cat.CreateStoredFunction("consume_freq", sig);
    RelationId delivery_time = *cat.CreateStoredFunction("delivery_time", sig);
    RelationId min_stock = *cat.CreateStoredFunction("min_stock", sig);
    RelationId low = *cat.CreateDerivedFunction("low", sig);
    for (int64_t i = 0; i < 1000; ++i) {
      for (auto [rel, value] : {std::pair{consume_freq, 10},
                                std::pair{delivery_time, 2},
                                std::pair{min_stock, 50}}) {
        EXPECT_TRUE(engine.db.Insert(rel, Tuple{Value(i), Value(value)}).ok());
      }
    }
    auto v = [](int id) { return Term::Var(id); };
    clause.head_relation = low;
    clause.num_vars = 7;  // I Q C D M X T
    clause.head_args = {v(0), v(1)};
    clause.body = {Literal::Relation(quantity, {v(0), v(1)}),
                   Literal::Relation(consume_freq, {v(0), v(2)}),
                   Literal::Relation(delivery_time, {v(0), v(3)}),
                   Literal::Relation(min_stock, {v(0), v(4)}),
                   Literal::Arith(ArithOp::kMul, v(5), v(2), v(3)),
                   Literal::Arith(ArithOp::kAdd, v(6), v(5), v(4)),
                   Literal::Compare(CompareOp::kLt, v(1), v(6))};
    clause.body[0].role = objectlog::RelationRole::kDeltaPlus;
  }

  void SetDelta(int64_t item, int64_t q) {
    deltas[quantity] = DeltaSet{TupleSet{Tuple{Value(item), Value(q)}}, {}};
  }
};

TEST(AllocCountTest, WarmOneRowDifferentialAllocatesOnlyItsOutput) {
#if !DELTAMON_ALLOC_COUNTS_RELIABLE
  GTEST_SKIP() << "allocation counting unreliable under sanitizers";
#endif
  // A propagation worker keeps its EvalCache across waves, and with it the
  // kernels' scratch: once warm, a one-row differential allocates nothing
  // but the head tuple it derives.
  OltpDifferential d;
  objectlog::StateContext ctx;
  ctx.deltas = &d.deltas;
  objectlog::EvalCache cache;
  objectlog::Evaluator ev(d.engine.db, d.engine.registry, ctx, &cache);
  ev.EnableKernels(true);
  const objectlog::KernelPlan plan = objectlog::KernelPlan::Compile(
      d.clause, d.engine.registry, d.engine.db.catalog(),
      /*derivations=*/false);
  ASSERT_TRUE(plan.eligible());

  // Item 5 at quantity 100 fails Q < T: nothing derived.
  d.SetDelta(5, 100);
  TupleSet out;
  out.reserve(4);
  ASSERT_TRUE(ev.EvaluateClause(d.clause, &out, nullptr, &plan).ok());
  uint64_t before = AllocCount();
  ASSERT_TRUE(ev.EvaluateClause(d.clause, &out, nullptr, &plan).ok());
  EXPECT_EQ(AllocCount() - before, 0u)
      << "a warm differential whose row fails must not touch the heap";
  EXPECT_TRUE(out.empty());

  // At quantity 10 it passes: exactly one allocation, the head tuple.
  d.SetDelta(5, 10);
  TupleSet warm;
  ASSERT_TRUE(ev.EvaluateClause(d.clause, &warm, nullptr, &plan).ok());
  before = AllocCount();
  ASSERT_TRUE(ev.EvaluateClause(d.clause, &out, nullptr, &plan).ok());
  EXPECT_EQ(AllocCount() - before, 1u)
      << "a warm differential must allocate only its head tuple";
  EXPECT_EQ(out.size(), 1u);
  EXPECT_TRUE(out.contains(Tuple{Value(5), Value(10)}));
}

}  // namespace
}  // namespace deltamon
