#ifndef DELTAMON_STORAGE_BASE_RELATION_H_
#define DELTAMON_STORAGE_BASE_RELATION_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "common/tuple.h"
#include "common/value.h"

namespace deltamon {

/// Identifier of a relation (stored or derived) in a database. Base
/// relations and derived relations share one id space so that dependency
/// edges and Δ-set maps can be keyed uniformly.
using RelationId = uint32_t;
inline constexpr RelationId kInvalidRelationId = 0;

/// Declared type of one column of a relation. kNull means "any".
struct ColumnType {
  ValueKind kind = ValueKind::kNull;
  /// For kind == kObject: the required object type, or kInvalidTypeId for
  /// any object.
  TypeId object_type = kInvalidTypeId;

  /// Whether `v` conforms to this column type.
  bool Admits(const Value& v) const;
  std::string ToString() const;
};

/// Column types of a relation. A stored function f(a1,...,an) -> (r1,...,rm)
/// is stored as a relation of arity n+m with the argument columns first.
class Schema {
 public:
  Schema() = default;
  explicit Schema(std::vector<ColumnType> columns)
      : columns_(std::move(columns)) {}

  size_t arity() const { return columns_.size(); }
  const ColumnType& column(size_t i) const { return columns_[i]; }
  const std::vector<ColumnType>& columns() const { return columns_; }

  /// Verifies arity and per-column type conformance of `t`.
  Status TypeCheck(const Tuple& t) const;

  std::string ToString() const;

 private:
  std::vector<ColumnType> columns_;
};

/// A stored base relation (an AMOS "stored function"): a set of typed
/// tuples with lazily built per-column hash indexes.
///
/// Mutations (Insert/Delete) are single-threaded by design — they happen in
/// the transaction's update statements, never during propagation. Concurrent
/// *reads* (Scan/Count/Contains) are safe, including the lazy index build a
/// cold indexed scan triggers: the per-column index pointer is published
/// with a double-checked atomic under a build mutex, so parallel propagation
/// workers can race on the first probe of a column without tearing. The
/// fast path stays one acquire load (free on x86).
class BaseRelation {
 public:
  BaseRelation(RelationId id, std::string name, Schema schema);

  BaseRelation(const BaseRelation&) = delete;
  BaseRelation& operator=(const BaseRelation&) = delete;
  ~BaseRelation();

  RelationId id() const { return id_; }
  const std::string& name() const { return name_; }
  const Schema& schema() const { return schema_; }
  size_t arity() const { return schema_.arity(); }
  size_t size() const { return rows_.size(); }

  /// Adds `t` (must already be type-checked by the database layer).
  /// Returns true iff the relation changed (set semantics: duplicate
  /// inserts are physical no-ops and generate no event).
  bool Insert(const Tuple& t);

  /// Removes `t`; returns true iff it was present.
  bool Delete(const Tuple& t);

  bool Contains(const Tuple& t) const { return rows_.contains(t); }

  const TupleSet& rows() const { return rows_; }

  /// Invokes `fn` for every tuple matching `pattern` (empty pattern = full
  /// scan); `fn` returning false stops the scan early. Uses a hash index
  /// when some pattern column is bound, building it on first use.
  void Scan(const ScanPattern& pattern,
            const std::function<bool(const Tuple&)>& fn) const;

  /// Number of tuples matching `pattern` (for tests and cost estimation).
  size_t Count(const ScanPattern& pattern) const;

  /// Forces creation of the hash index on `column` (otherwise built lazily
  /// on the first indexed scan that binds it). Safe to race from readers.
  void EnsureIndex(size_t column) const;

  /// True if an index on `column` has been built.
  bool HasIndex(size_t column) const {
    return column < num_columns_ && Index(column) != nullptr;
  }

  /// Commit version of the last committed transaction that wrote this
  /// relation (0 = never written by a versioned commit). Stamped by the
  /// transaction manager's commit leader under the exclusive engine lock
  /// and read by validation under the same lock, so a plain field
  /// suffices; the embedded Database::Commit path never touches it.
  uint64_t last_commit_version() const { return last_commit_version_; }
  void set_last_commit_version(uint64_t v) { last_commit_version_ = v; }

 private:
  /// Maps column values to dense positions in rows_ (TupleSet stores its
  /// elements contiguously). Positions are append-only stable; Delete's
  /// swap-remove moves the last tuple, so Delete patches its entries.
  using ColumnIndex = std::unordered_multimap<Value, uint32_t, ValueHash>;

  ColumnIndex* Index(size_t column) const {
    return indexes_[column].load(std::memory_order_acquire);
  }

  RelationId id_;
  std::string name_;
  Schema schema_;
  size_t num_columns_ = 0;
  TupleSet rows_;
  /// indexes_[c] maps column-c values to dense positions in rows_. Built
  /// lazily, hence mutable; published atomically (see class comment).
  /// Owned: freed in the dtor.
  mutable std::unique_ptr<std::atomic<ColumnIndex*>[]> indexes_;
  mutable std::mutex index_build_mu_;
  uint64_t last_commit_version_ = 0;
};

}  // namespace deltamon

#endif  // DELTAMON_STORAGE_BASE_RELATION_H_
