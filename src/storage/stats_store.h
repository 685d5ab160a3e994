#ifndef DELTAMON_STORAGE_STATS_STORE_H_
#define DELTAMON_STORAGE_STATS_STORE_H_

#include <atomic>
#include <cstdint>
#include <mutex>
#include <optional>
#include <unordered_map>

#include "storage/base_relation.h"

namespace deltamon {

/// Observed selectivity statistics, fed back from `explain analyze` /
/// `analyze rule` profiles and consulted by the greedy literal-ordering
/// optimizer (objectlog::Evaluator::OrderBody) as its cost estimate.
///
/// Keyed by (relation, role, bound-position count): the same relation
/// probed under different binding patterns has very different
/// selectivities, and the role separates Δ-side reads from full extents.
/// Cells accumulate (tried, produced) sums so repeated ANALYZE runs
/// converge instead of thrashing.
///
/// Mutex-guarded: recording happens on the session thread but lookups may
/// come from propagation workers ordering clause bodies.
class StatsStore {
 public:
  /// Folds in one observation: `tried` candidate tuples examined and
  /// `produced` bindings that survived. An observation with nothing tried
  /// carries no signal and is ignored (the rows-in = 0 case).
  void Record(RelationId relation, int role, int nbound, uint64_t tried,
              uint64_t produced);

  /// Cumulative observed selectivity produced/tried for the key, or
  /// nullopt when nothing has been recorded — the optimizer then falls
  /// back to pure boundness scoring.
  std::optional<double> Selectivity(RelationId relation, int role,
                                    int nbound) const;

  void Clear();
  size_t size() const;

  /// Bumped by every Record that folds in an observation and by every
  /// Clear. Plans derived from the stats (objectlog::KernelPlan) record
  /// the version they were compiled at and are stale once it moves.
  uint64_t version() const { return version_.load(); }

  /// Lock-free emptiness probe for the optimizer's hot path: ordering a
  /// clause body consults the store per literal, and until the first
  /// ANALYZE has recorded anything there is no point paying the mutex.
  bool empty() const { return count_.load(std::memory_order_relaxed) == 0; }

 private:
  /// (relation, role, nbound) packed into one map key; role and nbound
  /// are tiny enums/counts, 8 bits each is generous.
  static uint64_t Key(RelationId relation, int role, int nbound) {
    return (static_cast<uint64_t>(relation) << 16) |
           (static_cast<uint64_t>(role & 0xff) << 8) |
           static_cast<uint64_t>(nbound & 0xff);
  }

  struct Cell {
    uint64_t tried = 0;
    uint64_t produced = 0;
  };

  mutable std::mutex mu_;
  std::unordered_map<uint64_t, Cell> cells_;
  std::atomic<size_t> count_{0};
  std::atomic<uint64_t> version_{0};
};

}  // namespace deltamon

#endif  // DELTAMON_STORAGE_STATS_STORE_H_
