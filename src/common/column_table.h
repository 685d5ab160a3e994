#ifndef DELTAMON_COMMON_COLUMN_TABLE_H_
#define DELTAMON_COMMON_COLUMN_TABLE_H_

#include <cstdint>
#include <span>
#include <vector>

#include "common/tuple.h"
#include "common/value.h"

namespace deltamon {

/// Cell hash helpers for the typed column representations. Each must equal
/// Value::Hash() of the corresponding Value exactly — the hash-join kernels
/// mix hashes computed from typed columns with hashes computed from Values
/// (constants in probe patterns), and the two sides of a build–probe join
/// must land in the same bucket. column_table_test pins the equivalence.
inline size_t CellHashInt(int64_t v) {
  return HashCombine(static_cast<size_t>(ValueKind::kInt),
                     std::hash<int64_t>{}(v));
}
inline size_t CellHashSymbol(SymbolId s) {
  return HashCombine(static_cast<size_t>(ValueKind::kString),
                     std::hash<uint32_t>{}(s));
}
inline size_t CellHashObject(uint64_t oid) {
  return HashCombine(static_cast<size_t>(ValueKind::kObject),
                     std::hash<uint64_t>{}(oid));
}

/// A columnar (struct-of-arrays) table: the wave-front Δ-table of the batch
/// evaluation kernels. Each column starts untyped and specializes to a
/// dense int64 / SymbolId / Oid vector on first append, falling back to a
/// generic Value vector the moment a mixed kind arrives — so the common
/// all-int and all-string columns of monitoring workloads scan as flat
/// arrays, while arbitrary Values (bools, doubles, nulls) still work.
///
/// The table grows append-only; rows are addressed by dense index. It is
/// filled either a row at a time (AppendCell per column, then FinishRow) or
/// a column at a time (Gather per column, then FinishRows). A build–probe
/// HashIndex over any column subset supports the join kernels, and
/// GroupByKey clusters rows by distinct key in first-occurrence order for
/// probe batching and semi-join filtering. Reset empties the table for
/// reuse without releasing its storage, so a kernel's scratch tables stop
/// allocating once they have seen their largest batch.
class ColumnTable {
 public:
  ColumnTable() = default;
  explicit ColumnTable(size_t num_cols)
      : cols_(num_cols), num_cols_(num_cols) {}

  size_t num_cols() const { return num_cols_; }
  size_t num_rows() const { return num_rows_; }
  bool empty() const { return num_rows_ == 0; }

  /// Empties the table and gives it `num_cols` untyped columns, as if
  /// freshly constructed, but keeps every column object and its capacity.
  void Reset(size_t num_cols);

  /// Capacity hint for `rows` rows. An untyped column remembers the hint
  /// and reserves the vector its first value's kind selects.
  void Reserve(size_t rows);

  /// Appends one cell to column `col`. A row is complete once every column
  /// has received its cell; callers append whole rows (each column exactly
  /// once, then FinishRow).
  void AppendCell(size_t col, const Value& v) { cols_[col].Append(v); }
  void FinishRow() { ++num_rows_; }

  /// Appends `src`'s column `src_col` at rows `sel`, in order, to column
  /// `col` — one typed copy when the representations match, per-cell
  /// Values (degrading `col` to generic on a kind mismatch) otherwise.
  /// Callers gather every column the same number of rows, then FinishRows.
  void Gather(size_t col, const ColumnTable& src, size_t src_col,
              std::span<const uint32_t> sel) {
    cols_[col].Gather(src.cols_[src_col], sel);
  }
  void FinishRows(size_t n) { num_rows_ += n; }

  /// Materializes the cell as a Value (O(1); symbol cells reuse the
  /// interned id).
  Value Get(size_t row, size_t col) const { return cols_[col].Get(row); }

  /// Hash of the cell, equal to Get(row, col).Hash().
  size_t CellHash(size_t row, size_t col) const {
    return cols_[col].Hash(row);
  }

  bool CellEquals(size_t row, size_t col, const Value& v) const {
    return cols_[col].Equals(row, v);
  }
  bool CellEqualsCell(size_t row, size_t col, const ColumnTable& other,
                      size_t other_row, size_t other_col) const {
    return cols_[col].EqualsCell(row, other.cols_[other_col], other_row);
  }

  /// Combined hash of the row restricted to `key_cols` (HashCombine chain,
  /// same recipe as Tuple's incremental hash but over the key columns).
  /// The per-row definition KeyHashes computes a column at a time.
  size_t KeyHash(size_t row, const std::vector<size_t>& key_cols) const;

  /// Sets `*out` to every row's KeyHash over `key_cols`, computed a column
  /// at a time.
  void KeyHashes(const std::vector<size_t>& key_cols,
                 std::vector<size_t>* out) const;

  /// Row-key equality against another table's row (columns paired
  /// position-wise: key_cols[i] here vs other_cols[i] there).
  bool KeyEquals(size_t row, const std::vector<size_t>& key_cols,
                 const ColumnTable& other, size_t other_row,
                 const std::vector<size_t>& other_cols) const;

  /// Chained-bucket hash index over `key_cols`, for the build side of a
  /// hash join: heads[h & mask] starts a next[]-linked chain of row ids
  /// sharing the bucket (not necessarily the key — probers re-verify with
  /// KeyEquals). kNoRow terminates chains.
  struct HashIndex {
    static constexpr uint32_t kNoRow = 0xffffffffu;
    std::vector<uint32_t> heads;
    std::vector<uint32_t> next;
    uint32_t mask = 0;
    std::vector<size_t> key_cols;
    std::vector<size_t> hashes;  ///< per-row key hash (BuildIndex's input)

    uint32_t First(size_t hash) const {
      return heads.empty() ? kNoRow : heads[hash & mask];
    }
    uint32_t Next(uint32_t row) const { return next[row]; }
  };
  /// Rebuilds `*idx` over `key_cols`, reusing its storage.
  void BuildIndex(const std::vector<size_t>& key_cols, HashIndex* idx) const;

  /// Rows clustered by distinct key over `key_cols`. Groups are numbered in
  /// first-occurrence row order and each group's member rows ascend — the
  /// deterministic iteration order the probe kernel batches scans by.
  struct Grouping {
    /// Representative (first) row per group, ascending.
    std::vector<uint32_t> reps;
    /// Group of each row.
    std::vector<uint32_t> group_of;
    /// Member rows of all groups, group by group, each group ascending;
    /// group g's are members[offsets[g], offsets[g + 1]).
    std::vector<uint32_t> members;
    std::vector<uint32_t> offsets;

    size_t size() const { return reps.size(); }
    std::span<const uint32_t> Members(size_t g) const {
      return std::span<const uint32_t>(members).subspan(
          offsets[g], offsets[g + 1] - offsets[g]);
    }

    // GroupByKey's working storage, kept for reuse.
    struct Slot {
      uint32_t group;
      size_t hash;
    };
    std::vector<Slot> slots;
    std::vector<size_t> hashes;
  };
  /// Regroups the rows into `*g` by `key_cols`, reusing its storage.
  void GroupByKey(const std::vector<size_t>& key_cols, Grouping* g) const;

 private:
  /// One column: unset until the first append picks a typed representation;
  /// a mismatching later kind converts the column to kGeneric in place.
  class Column {
   public:
    enum class Rep : uint8_t { kUnset, kInt64, kSymbol, kObject, kGeneric };

    void Clear();
    void Reserve(size_t rows);
    void Append(const Value& v);
    void Gather(const Column& src, std::span<const uint32_t> sel);
    Value Get(size_t row) const;
    size_t Hash(size_t row) const;
    /// seeds[row] = HashCombine(seeds[row], Hash(row)) for every row.
    void CombineHashes(std::span<size_t> seeds) const;
    bool Equals(size_t row, const Value& v) const;
    bool EqualsCell(size_t row, const Column& other, size_t other_row) const;

   private:
    /// Fixes an unset column's representation, honoring a pending Reserve.
    void Specialize(Rep rep);
    void Degrade(size_t rows_so_far);

    Rep rep_ = Rep::kUnset;
    size_t reserve_ = 0;  ///< Reserve hint pending while unset
    std::vector<int64_t> ints_;
    std::vector<SymbolId> syms_;
    std::vector<Oid> oids_;
    std::vector<Value> generic_;
  };

  /// cols_[0, num_cols_) are the table's columns; any beyond are kept
  /// from a wider earlier use for their capacity.
  std::vector<Column> cols_;
  size_t num_cols_ = 0;
  size_t num_rows_ = 0;
};

}  // namespace deltamon

#endif  // DELTAMON_COMMON_COLUMN_TABLE_H_
