#ifndef DELTAMON_STORAGE_SNAPSHOT_H_
#define DELTAMON_STORAGE_SNAPSHOT_H_

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "common/tuple.h"
#include "delta/delta_set.h"
#include "delta/delta_view.h"
#include "storage/catalog.h"

namespace deltamon {

/// What one transaction read from one base relation, at scan-pattern
/// granularity: the patterns it probed/scanned with, or `full` when it
/// read the whole extent (or probed with too many distinct patterns to
/// keep). Validation conflicts the footprint against the tuples a
/// concurrent transaction committed: a written tuple matching any pattern
/// means the read would return differently today than it did.
struct ReadFootprint {
  bool full = false;
  std::vector<ScanPattern> patterns;

  /// Above this many distinct patterns the footprint collapses to `full`;
  /// bounds both memory and validation cost per (txn, relation).
  static constexpr size_t kMaxPatterns = 64;

  void AddFull() {
    full = true;
    patterns.clear();
  }
  void AddPattern(const ScanPattern& pattern);
  bool Overlaps(const DeltaSet& written) const;
};

/// One session's private transaction state (ROADMAP item 2): a begin
/// version identifying its snapshot, a per-relation write overlay (the
/// paper's <Δ+, Δ−> reused as a transaction-private Δ-set layered over the
/// shared store), and the read footprint first-committer-wins validation
/// checks at commit.
///
/// The overlay is maintained relative to the snapshot state:
///   view(rel) = (stored(rel) − overlay.minus) ∪ overlay.plus
/// with plus disjoint from the snapshot extent and minus a subset of it.
/// Buffered updates are folded view-aware, so replaying plus/minus against
/// the store at commit reproduces exactly the net change the transaction
/// computed — and every membership decision the folding made is protected
/// by a recorded point read, so a concurrent commit that would have
/// changed the decision aborts this transaction instead of silently
/// diverging from its serial replay.
class TxnSnapshot {
 public:
  TxnSnapshot() = default;

  uint64_t begin_version() const { return begin_version_; }
  bool explicit_begin() const { return explicit_begin_; }
  void set_explicit_begin(bool on) { explicit_begin_ = on; }

  bool HasWrites() const { return !writes_.empty(); }
  bool HasReads() const { return !reads_.empty(); }
  const std::unordered_map<RelationId, DeltaSet>& writes() const {
    return writes_;
  }
  const std::unordered_map<RelationId, ReadFootprint>& reads() const {
    return reads_;
  }

  /// Discards all buffered writes and recorded reads and re-snapshots at
  /// `version` — begin, abort, and post-commit reset are all this.
  void Reset(uint64_t version);

  /// The transaction's view of stored relation `rel`: the store seen
  /// forward through the transaction's private Δ-set (the identity view
  /// while `rel` is untouched).
  DeltaView View(RelationId rel) const;

  /// --- Read recording (evaluator hooks) --------------------------------
  void RecordScan(RelationId rel, const ScanPattern& pattern);
  void RecordPointRead(RelationId rel, const Tuple& t);

  /// --- Buffered DML ----------------------------------------------------
  /// Type-checks against the catalog and folds into the overlay without
  /// touching shared storage. Set replaces every view tuple whose argument
  /// prefix equals `args`, recording the prefix probe as a read.
  Status BufferInsert(const Catalog& catalog, RelationId rel, const Tuple& t);
  Status BufferDelete(const Catalog& catalog, RelationId rel, const Tuple& t);
  Status BufferSet(const Catalog& catalog, RelationId rel, const Tuple& args,
                   const Tuple& results);

  /// Result of the last successful commit through the transaction manager
  /// (for metrics/tests: which version and commit wave it landed in).
  struct CommitInfo {
    uint64_t version = 0;     ///< this transaction's commit version
    uint64_t batch_id = 0;    ///< commit wave it was grouped into
    uint64_t batch_size = 0;  ///< transactions committed in that wave
    uint64_t queue_wait_ns = 0;
    uint64_t check_ns = 0;
  };
  CommitInfo last_commit;

 private:
  /// Membership in the transaction's view of `rel` (overlay over `base`).
  bool ViewContains(const BaseRelation& base, RelationId rel,
                    const Tuple& t) const;

  Result<const BaseRelation*> CheckedBase(const Catalog& catalog,
                                          RelationId rel,
                                          const Tuple& t) const;

  uint64_t begin_version_ = 0;
  bool explicit_begin_ = false;
  std::unordered_map<RelationId, DeltaSet> writes_;
  std::unordered_map<RelationId, ReadFootprint> reads_;
};

}  // namespace deltamon

#endif  // DELTAMON_STORAGE_SNAPSHOT_H_
