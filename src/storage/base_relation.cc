#include "storage/base_relation.h"

#include <memory>

namespace deltamon {

bool ColumnType::Admits(const Value& v) const {
  if (kind == ValueKind::kNull) return true;  // "any"
  if (v.kind() != kind) {
    // Ints are acceptable where doubles are declared (numeric widening).
    if (kind == ValueKind::kDouble && v.is_int()) return true;
    return false;
  }
  if (kind == ValueKind::kObject && object_type != kInvalidTypeId) {
    return v.AsObject().type == object_type;
  }
  return true;
}

std::string ColumnType::ToString() const {
  if (kind == ValueKind::kObject && object_type != kInvalidTypeId) {
    return "object<" + std::to_string(object_type) + ">";
  }
  return ValueKindName(kind);
}

Status Schema::TypeCheck(const Tuple& t) const {
  if (t.arity() != arity()) {
    return Status::TypeError("tuple arity " + std::to_string(t.arity()) +
                             " does not match schema arity " +
                             std::to_string(arity()));
  }
  for (size_t i = 0; i < arity(); ++i) {
    if (!columns_[i].Admits(t[i])) {
      return Status::TypeError("column " + std::to_string(i) + " expects " +
                               columns_[i].ToString() + ", got " +
                               t[i].ToString());
    }
  }
  return Status::OK();
}

std::string Schema::ToString() const {
  std::string out = "(";
  for (size_t i = 0; i < columns_.size(); ++i) {
    if (i > 0) out += ", ";
    out += columns_[i].ToString();
  }
  return out + ")";
}

BaseRelation::BaseRelation(RelationId id, std::string name, Schema schema)
    : id_(id),
      name_(std::move(name)),
      schema_(std::move(schema)),
      num_columns_(schema_.arity()),
      indexes_(new std::atomic<ColumnIndex*>[schema_.arity()]) {
  for (size_t c = 0; c < num_columns_; ++c) {
    indexes_[c].store(nullptr, std::memory_order_relaxed);
  }
}

BaseRelation::~BaseRelation() {
  for (size_t c = 0; c < num_columns_; ++c) {
    delete indexes_[c].load(std::memory_order_relaxed);
  }
}

bool BaseRelation::Insert(const Tuple& t) {
  auto [it, inserted] = rows_.insert(t);
  if (!inserted) return false;
  // New elements always append, so the new dense position is size()-1.
  const auto pos = static_cast<uint32_t>(rows_.size() - 1);
  const Tuple& stored = *it;
  for (size_t c = 0; c < num_columns_; ++c) {
    ColumnIndex* index = Index(c);
    if (index != nullptr) index->emplace(stored[c], pos);
  }
  return true;
}

bool BaseRelation::Delete(const Tuple& t) {
  const size_t i = rows_.IndexOf(t);
  if (i == TupleSet::npos) return false;
  const size_t last = rows_.size() - 1;
  for (size_t c = 0; c < num_columns_; ++c) {
    ColumnIndex* index = Index(c);
    if (index == nullptr) continue;
    // Drop the erased tuple's entry...
    auto range = index->equal_range(rows_.At(i)[c]);
    for (auto e = range.first; e != range.second; ++e) {
      if (e->second == i) {
        index->erase(e);
        break;
      }
    }
    // ...and repoint the last tuple's entry, which erase() swap-moves
    // into position i.
    if (i != last) {
      range = index->equal_range(rows_.At(last)[c]);
      for (auto e = range.first; e != range.second; ++e) {
        if (e->second == last) {
          e->second = static_cast<uint32_t>(i);
          break;
        }
      }
    }
  }
  rows_.erase(rows_.begin() + static_cast<ptrdiff_t>(i));
  return true;
}

void BaseRelation::EnsureIndex(size_t column) const {
  if (column >= num_columns_ || Index(column) != nullptr) return;
  // Double-checked build: concurrent readers may race to here on the first
  // indexed scan of a cold column; the mutex makes exactly one of them
  // build, and the release store publishes the fully built index.
  std::lock_guard<std::mutex> lock(index_build_mu_);
  if (indexes_[column].load(std::memory_order_relaxed) != nullptr) return;
  auto index = std::make_unique<ColumnIndex>();
  index->reserve(rows_.size());
  for (size_t i = 0; i < rows_.size(); ++i) {
    index->emplace(rows_.At(i)[column], static_cast<uint32_t>(i));
  }
  indexes_[column].store(index.release(), std::memory_order_release);
}

void BaseRelation::Scan(const ScanPattern& pattern,
                        const std::function<bool(const Tuple&)>& fn) const {
  // Fast path: exact-match pattern on all columns.
  if (!pattern.empty() && pattern.size() == arity()) {
    bool all_bound = true;
    for (const auto& p : pattern) {
      if (!p.has_value()) {
        all_bound = false;
        break;
      }
    }
    if (all_bound) {
      std::vector<Value> vals;
      vals.reserve(arity());
      for (const auto& p : pattern) vals.push_back(*p);
      Tuple probe(std::move(vals));
      if (rows_.contains(probe)) fn(probe);
      return;
    }
  }
  // Indexed path: use the first bound column.
  for (size_t c = 0; c < pattern.size(); ++c) {
    if (!pattern[c].has_value()) continue;
    EnsureIndex(c);
    auto range = Index(c)->equal_range(*pattern[c]);
    for (auto it = range.first; it != range.second; ++it) {
      const Tuple& t = rows_.At(it->second);
      if (TupleMatchesPattern(t, pattern)) {
        if (!fn(t)) return;
      }
    }
    return;
  }
  // Full scan.
  for (const Tuple& t : rows_) {
    if (!fn(t)) return;
  }
}

size_t BaseRelation::Count(const ScanPattern& pattern) const {
  size_t n = 0;
  Scan(pattern, [&n](const Tuple&) {
    ++n;
    return true;
  });
  return n;
}

}  // namespace deltamon
