#ifndef DELTAMON_COMMON_TUPLE_H_
#define DELTAMON_COMMON_TUPLE_H_

#include <initializer_list>
#include <iosfwd>
#include <optional>
#include <string>
#include <vector>

#include "common/flat_tuple_set.h"
#include "common/value.h"

namespace deltamon {

/// An immutable row of Values: the unit stored in base relations, flowing
/// through Δ-sets, and produced by derived relations.
///
/// The hash is computed once at construction and updated incrementally by
/// Append/Concat, so TupleHash is a single load — set probes, rehashes, and
/// Δ-set reconciliation never re-walk the values.
class Tuple {
 public:
  Tuple() = default;
  explicit Tuple(std::vector<Value> values)
      : values_(std::move(values)), hash_(ExtendHash(kEmptyHash, values_)) {}
  Tuple(std::initializer_list<Value> values)
      : values_(values), hash_(ExtendHash(kEmptyHash, values_)) {}

  size_t arity() const { return values_.size(); }
  bool empty() const { return values_.empty(); }
  const Value& operator[](size_t i) const { return values_[i]; }
  const std::vector<Value>& values() const { return values_; }

  void Append(Value v) {
    hash_ = HashCombine(hash_, v.Hash());
    values_.push_back(std::move(v));
  }

  /// Concatenation (used by cartesian product / join in relalg).
  Tuple Concat(const Tuple& other) const;

  /// Projection onto the given column indexes (duplicates allowed).
  Tuple Project(const std::vector<size_t>& columns) const;

  bool operator==(const Tuple& other) const {
    return hash_ == other.hash_ && values_ == other.values_;
  }
  bool operator<(const Tuple& other) const;

  size_t Hash() const { return hash_; }

  /// "(v1, v2, ...)".
  std::string ToString() const;

 private:
  /// Hash of the zero-arity tuple; Append/Concat chain HashCombine from
  /// here, so the cached hash of a prefix extends to the full tuple.
  static constexpr size_t kEmptyHash = 0x9e3779b97f4a7c15ULL;

  static size_t ExtendHash(size_t seed, const std::vector<Value>& values) {
    for (const Value& v : values) seed = HashCombine(seed, v.Hash());
    return seed;
  }

  Tuple(std::vector<Value> values, size_t hash)
      : values_(std::move(values)), hash_(hash) {}

  std::vector<Value> values_;
  size_t hash_ = kEmptyHash;
};

struct TupleHash {
  size_t operator()(const Tuple& t) const { return t.Hash(); }
};

/// The canonical set-of-tuples container used across the library. Set
/// semantics per the paper (§7.2): no duplicates. Backed by a flat
/// open-addressing table over dense storage (see flat_tuple_set.h for the
/// iterator/pointer stability contract, which is weaker than
/// std::unordered_set's).
using TupleSet = FlatHashSet<Tuple, TupleHash>;

/// A partial-match pattern for scanning: one optional Value per column;
/// engaged entries must match exactly.
using ScanPattern = std::vector<std::optional<Value>>;

/// True iff every engaged position of `pattern` equals that column of `t`
/// (an empty or all-unbound pattern matches every tuple). The one pattern
/// predicate behind relation scans, Δ-set views and read-footprint
/// validation.
inline bool TupleMatchesPattern(const Tuple& t, const ScanPattern& pattern) {
  for (size_t i = 0; i < pattern.size(); ++i) {
    if (pattern[i].has_value() &&
        (i >= t.arity() || !(t[i] == *pattern[i]))) {
      return false;
    }
  }
  return true;
}

/// Deterministically ordered copy of `set`, for stable iteration in tests,
/// traces, and output.
std::vector<Tuple> SortedTuples(const TupleSet& set);

/// "{(..), (..)}" with tuples in sorted order.
std::string TupleSetToString(const TupleSet& set);

/// Streams t.ToString() (also makes gtest failures readable).
std::ostream& operator<<(std::ostream& os, const Tuple& t);

}  // namespace deltamon

#endif  // DELTAMON_COMMON_TUPLE_H_
