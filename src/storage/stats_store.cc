#include "storage/stats_store.h"

namespace deltamon {

void StatsStore::Record(RelationId relation, int role, int nbound,
                        uint64_t tried, uint64_t produced) {
  if (tried == 0) return;  // nothing attempted, nothing learned
  std::lock_guard<std::mutex> lock(mu_);
  Cell& cell = cells_[Key(relation, role, nbound)];
  cell.tried += tried;
  cell.produced += produced;
  count_.store(cells_.size(), std::memory_order_relaxed);
  version_.fetch_add(1);
}

std::optional<double> StatsStore::Selectivity(RelationId relation, int role,
                                              int nbound) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = cells_.find(Key(relation, role, nbound));
  if (it == cells_.end() || it->second.tried == 0) return std::nullopt;
  return static_cast<double>(it->second.produced) /
         static_cast<double>(it->second.tried);
}

void StatsStore::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  cells_.clear();
  count_.store(0, std::memory_order_relaxed);
  version_.fetch_add(1);
}

size_t StatsStore::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return cells_.size();
}

}  // namespace deltamon
