#include "common/column_table.h"

#include <bit>

namespace deltamon {
namespace {

/// The seed of every KeyHash chain.
constexpr size_t kKeyHashSeed = 0x9e3779b97f4a7c15ULL;

template <typename T>
void GatherInto(std::vector<T>& dst, const std::vector<T>& src,
                std::span<const uint32_t> sel) {
  const size_t base = dst.size();
  dst.resize(base + sel.size());
  T* out = dst.data() + base;
  for (size_t i = 0; i < sel.size(); ++i) out[i] = src[sel[i]];
}

template <typename T, typename CellHash>
void CombineInto(std::span<size_t> seeds, const std::vector<T>& cells,
                 CellHash cell_hash) {
  for (size_t row = 0; row < seeds.size(); ++row) {
    seeds[row] = HashCombine(seeds[row], cell_hash(cells[row]));
  }
}

}  // namespace

void ColumnTable::Column::Clear() {
  rep_ = Rep::kUnset;
  reserve_ = 0;
  ints_.clear();
  syms_.clear();
  oids_.clear();
  generic_.clear();
}

void ColumnTable::Column::Reserve(size_t rows) {
  switch (rep_) {
    case Rep::kUnset:
      reserve_ = rows;
      break;
    case Rep::kInt64:
      ints_.reserve(rows);
      break;
    case Rep::kSymbol:
      syms_.reserve(rows);
      break;
    case Rep::kObject:
      oids_.reserve(rows);
      break;
    case Rep::kGeneric:
      generic_.reserve(rows);
      break;
  }
}

void ColumnTable::Column::Specialize(Rep rep) {
  rep_ = rep;
  if (reserve_ == 0) return;
  Reserve(reserve_);
  reserve_ = 0;
}

void ColumnTable::Column::Degrade(size_t rows_so_far) {
  // Convert the typed vector built so far into Values; subsequent appends
  // stay generic. rows_so_far is the column's current length. The typed
  // vector keeps its capacity for the next Reset.
  generic_.reserve(rows_so_far + 1);
  switch (rep_) {
    case Rep::kInt64:
      for (int64_t v : ints_) generic_.emplace_back(v);
      ints_.clear();
      break;
    case Rep::kSymbol:
      for (SymbolId s : syms_) generic_.emplace_back(InternedString{s});
      syms_.clear();
      break;
    case Rep::kObject:
      for (Oid o : oids_) generic_.emplace_back(o);
      oids_.clear();
      break;
    case Rep::kUnset:
    case Rep::kGeneric:
      break;
  }
  rep_ = Rep::kGeneric;
}

void ColumnTable::Column::Append(const Value& v) {
  if (rep_ == Rep::kUnset) {
    switch (v.kind()) {
      case ValueKind::kInt:
        Specialize(Rep::kInt64);
        break;
      case ValueKind::kString:
        Specialize(Rep::kSymbol);
        break;
      case ValueKind::kObject:
        Specialize(Rep::kObject);
        break;
      default:
        Specialize(Rep::kGeneric);
        break;
    }
  }
  switch (rep_) {
    case Rep::kInt64:
      if (v.is_int()) {
        ints_.push_back(v.AsInt());
        return;
      }
      Degrade(ints_.size());
      break;
    case Rep::kSymbol:
      if (v.is_string()) {
        syms_.push_back(v.string_id());
        return;
      }
      Degrade(syms_.size());
      break;
    case Rep::kObject:
      if (v.is_object()) {
        oids_.push_back(v.AsObject());
        return;
      }
      Degrade(oids_.size());
      break;
    case Rep::kUnset:
    case Rep::kGeneric:
      break;
  }
  generic_.push_back(v);
}

void ColumnTable::Column::Gather(const Column& src,
                                 std::span<const uint32_t> sel) {
  if (sel.empty()) return;
  // An unset column adopts a typed source's representation; a generic
  // source goes cell by cell below, so each Value picks the rep exactly
  // as Append would.
  if (rep_ == Rep::kUnset && src.rep_ != Rep::kGeneric) Specialize(src.rep_);
  if (rep_ == src.rep_) {
    switch (rep_) {
      case Rep::kInt64:
        GatherInto(ints_, src.ints_, sel);
        return;
      case Rep::kSymbol:
        GatherInto(syms_, src.syms_, sel);
        return;
      case Rep::kObject:
        GatherInto(oids_, src.oids_, sel);
        return;
      case Rep::kGeneric:
        GatherInto(generic_, src.generic_, sel);
        return;
      case Rep::kUnset:
        break;
    }
  }
  for (uint32_t row : sel) Append(src.Get(row));
}

Value ColumnTable::Column::Get(size_t row) const {
  switch (rep_) {
    case Rep::kInt64:
      return Value(ints_[row]);
    case Rep::kSymbol:
      return Value(InternedString{syms_[row]});
    case Rep::kObject:
      return Value(oids_[row]);
    case Rep::kGeneric:
      return generic_[row];
    case Rep::kUnset:
      break;
  }
  return Value();
}

size_t ColumnTable::Column::Hash(size_t row) const {
  switch (rep_) {
    case Rep::kInt64:
      return CellHashInt(ints_[row]);
    case Rep::kSymbol:
      return CellHashSymbol(syms_[row]);
    case Rep::kObject:
      return CellHashObject(oids_[row].id);
    case Rep::kGeneric:
      return generic_[row].Hash();
    case Rep::kUnset:
      break;
  }
  return Value().Hash();
}

void ColumnTable::Column::CombineHashes(std::span<size_t> seeds) const {
  switch (rep_) {
    case Rep::kInt64:
      CombineInto(seeds, ints_, CellHashInt);
      return;
    case Rep::kSymbol:
      CombineInto(seeds, syms_, CellHashSymbol);
      return;
    case Rep::kObject:
      CombineInto(seeds, oids_, [](Oid o) { return CellHashObject(o.id); });
      return;
    case Rep::kGeneric:
      CombineInto(seeds, generic_, [](const Value& v) { return v.Hash(); });
      return;
    case Rep::kUnset:
      break;
  }
  for (size_t& seed : seeds) seed = HashCombine(seed, Value().Hash());
}

bool ColumnTable::Column::Equals(size_t row, const Value& v) const {
  switch (rep_) {
    case Rep::kInt64:
      return v.is_int() && v.AsInt() == ints_[row];
    case Rep::kSymbol:
      return v.is_string() && v.string_id() == syms_[row];
    case Rep::kObject:
      return v.is_object() && v.AsObject() == oids_[row];
    case Rep::kGeneric:
      return generic_[row] == v;
    case Rep::kUnset:
      break;
  }
  return v.is_null();
}

bool ColumnTable::Column::EqualsCell(size_t row, const Column& other,
                                     size_t other_row) const {
  if (rep_ == other.rep_) {
    switch (rep_) {
      case Rep::kInt64:
        return ints_[row] == other.ints_[other_row];
      case Rep::kSymbol:
        return syms_[row] == other.syms_[other_row];
      case Rep::kObject:
        return oids_[row] == other.oids_[other_row];
      default:
        break;
    }
  }
  return Equals(row, other.Get(other_row));
}

void ColumnTable::Reset(size_t num_cols) {
  if (cols_.size() < num_cols) cols_.resize(num_cols);
  for (size_t c = 0; c < num_cols; ++c) cols_[c].Clear();
  num_cols_ = num_cols;
  num_rows_ = 0;
}

void ColumnTable::Reserve(size_t rows) {
  for (size_t c = 0; c < num_cols_; ++c) cols_[c].Reserve(rows);
}

size_t ColumnTable::KeyHash(size_t row,
                            const std::vector<size_t>& key_cols) const {
  // Same chained recipe as Tuple::Hash so single-column keys of kernels and
  // any future Tuple-keyed consumers agree on bucket spread; the absolute
  // seed differs from Tuple's (not required to match — only build and probe
  // sides of one join must agree, and both come through here or through
  // Value::Hash for pattern constants on single columns).
  size_t seed = kKeyHashSeed;
  for (size_t col : key_cols) seed = HashCombine(seed, CellHash(row, col));
  return seed;
}

void ColumnTable::KeyHashes(const std::vector<size_t>& key_cols,
                            std::vector<size_t>* out) const {
  out->assign(num_rows_, kKeyHashSeed);
  for (size_t col : key_cols) cols_[col].CombineHashes(*out);
}

bool ColumnTable::KeyEquals(size_t row, const std::vector<size_t>& key_cols,
                            const ColumnTable& other, size_t other_row,
                            const std::vector<size_t>& other_cols) const {
  for (size_t i = 0; i < key_cols.size(); ++i) {
    if (!CellEqualsCell(row, key_cols[i], other, other_row, other_cols[i])) {
      return false;
    }
  }
  return true;
}

void ColumnTable::BuildIndex(const std::vector<size_t>& key_cols,
                             HashIndex* idx) const {
  idx->key_cols = key_cols;
  idx->heads.clear();
  idx->mask = 0;
  if (num_rows_ == 0) return;
  size_t buckets = std::bit_ceil(num_rows_ + num_rows_ / 2);
  idx->heads.assign(buckets, HashIndex::kNoRow);
  idx->mask = static_cast<uint32_t>(buckets - 1);
  idx->next.resize(num_rows_);
  KeyHashes(key_cols, &idx->hashes);
  for (size_t row = 0; row < num_rows_; ++row) {
    uint32_t& head = idx->heads[idx->hashes[row] & idx->mask];
    idx->next[row] = head;
    head = static_cast<uint32_t>(row);
  }
}

void ColumnTable::GroupByKey(const std::vector<size_t>& key_cols,
                             Grouping* g) const {
  g->reps.clear();
  g->offsets.clear();
  g->group_of.resize(num_rows_);
  g->members.resize(num_rows_);
  if (num_rows_ != 0) {
    // Open-addressing directory of group representatives: rows are visited
    // in order, so the first row of each distinct key becomes its group's
    // representative and group ids ascend by first occurrence. offsets[g]
    // counts group g's rows meanwhile.
    size_t buckets = std::bit_ceil(num_rows_ + num_rows_ / 2);
    size_t mask = buckets - 1;
    g->slots.assign(buckets, Grouping::Slot{HashIndex::kNoRow, 0});
    KeyHashes(key_cols, &g->hashes);
    for (size_t row = 0; row < num_rows_; ++row) {
      size_t h = g->hashes[row];
      size_t b = h & mask;
      uint32_t group = HashIndex::kNoRow;
      while (g->slots[b].group != HashIndex::kNoRow) {
        if (g->slots[b].hash == h &&
            KeyEquals(g->reps[g->slots[b].group], key_cols, *this, row,
                      key_cols)) {
          group = g->slots[b].group;
          break;
        }
        b = (b + 1) & mask;
      }
      if (group == HashIndex::kNoRow) {
        group = static_cast<uint32_t>(g->reps.size());
        g->slots[b] = Grouping::Slot{group, h};
        g->reps.push_back(static_cast<uint32_t>(row));
        g->offsets.push_back(0);
      }
      g->group_of[row] = group;
      ++g->offsets[group];
    }
  }
  // Turn the counts into group ends, then fill each group back to front
  // with descending rows: its rows end up ascending and its offset at its
  // start.
  uint32_t end = 0;
  for (uint32_t& offset : g->offsets) {
    end += offset;
    offset = end;
  }
  for (size_t row = num_rows_; row-- > 0;) {
    g->members[--g->offsets[g->group_of[row]]] = static_cast<uint32_t>(row);
  }
  g->offsets.push_back(static_cast<uint32_t>(num_rows_));
}

}  // namespace deltamon
