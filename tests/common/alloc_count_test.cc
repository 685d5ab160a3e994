// Proves the data-plane hot paths stay allocation-free once warm: a global
// operator new hook counts heap allocations across a measured region. This
// lives in its own test binary so the hook cannot perturb other suites.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <functional>
#include <new>

#include "common/tuple.h"
#include "common/value.h"
#include "delta/delta_set.h"
#include "delta/delta_view.h"

namespace {

std::atomic<uint64_t> g_allocations{0};

}  // namespace

void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}

void* operator new[](std::size_t size) { return ::operator new(size); }

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

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

}  // namespace
}  // namespace deltamon
