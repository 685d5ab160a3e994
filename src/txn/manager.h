#ifndef DELTAMON_TXN_MANAGER_H_
#define DELTAMON_TXN_MANAGER_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <mutex>
#include <shared_mutex>
#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "obs/profile.h"
#include "obs/span.h"
#include "rules/rule_manager.h"
#include "storage/database.h"
#include "storage/snapshot.h"

namespace deltamon::txn {

/// Concurrency control for one Engine (ROADMAP item 2): optimistic
/// transactions with buffered writes (TxnSnapshot overlays), a group-commit
/// queue that batches the Δ-sets of up to max_batch() ready transactions
/// into a single deferred check-phase wave (∪Δ before propagation — the
/// paper's amortization applied across transactions), and
/// first-committer-wins validation on read/write footprints.
///
/// Locking model:
///  - `engine_mutex()` is the engine gate. Statements that read or buffer
///    against the shared store hold it shared; DDL and admin commands that
///    mutate the catalog or rule set hold it exclusive; the commit leader
///    holds it exclusive for the whole wave (validate → apply → check).
///  - The commit queue has its own mutex; it is never held across the
///    engine gate.
///  - The active-transaction registry has its own small mutex, only ever
///    acquired after (or without) the engine gate, never before it.
///
/// Commit protocol (leader/follower): every committing thread enqueues a
/// waiter; the first unblocked waiter elects itself leader, drains up to
/// max_batch() waiters from the front of the queue, and commits them as
/// one wave under the exclusive engine gate:
///   1. validate each transaction in queue order against the commit
///      history AND the earlier survivors of this wave (first committer
///      wins; losers get a retryable kTxnConflict and drop out),
///   2. apply the survivors' overlays through Database::ApplyOverlay
///      (undo-logged, Δ-sets folded),
///   3. run ONE check phase over the unioned Δ-sets,
///   4. capture rule-action writes (the undo-log tail beyond the applied
///      overlays) as one extra history record, stamp per-relation commit
///      versions, append history, Database::CommitWithoutCheck().
/// A check-phase failure rolls the whole wave back physically and fails
/// every survivor with the (non-retryable) check error.
class TransactionManager {
 public:
  static constexpr size_t kDefaultMaxBatch = 16;
  /// Commit-history cap: beyond this many retained records the oldest are
  /// force-pruned and transactions older than the pruned range validate
  /// conservatively (conflict if any relation they touched has committed
  /// at all since their snapshot).
  static constexpr size_t kMaxHistory = 4096;

  TransactionManager(Database& db, rules::RuleManager& rules)
      : db_(db), rules_(rules) {}
  TransactionManager(const TransactionManager&) = delete;
  TransactionManager& operator=(const TransactionManager&) = delete;

  /// The engine gate (see class comment). Sessions take it shared for
  /// read/DML statements and exclusive for DDL/admin statements.
  std::shared_mutex& engine_mutex() { return engine_mu_; }

  /// The version of the latest committed wave; new snapshots begin here.
  uint64_t current_version() const {
    return version_.load(std::memory_order_acquire);
  }

  /// (Re-)registers `txn` as active at the current version, discarding any
  /// buffered writes and recorded reads. Begin, abort, and the per-
  /// statement autocommit refresh are all this. Call while holding the
  /// engine gate (shared suffices) so the version matches visible state.
  void Begin(TxnSnapshot& txn);

  /// Unregisters `txn` (session teardown); its begin version no longer
  /// pins commit history.
  void Release(TxnSnapshot& txn);

  /// Commits `txn` through the group-commit queue; blocks until its wave
  /// completes. Returns OK (txn.last_commit describes the wave),
  /// kTxnConflict (retryable: the overlay was discarded, the snapshot
  /// re-registered at the current version), or the check phase's own error
  /// (non-retryable; the whole wave was rolled back). Must be called
  /// WITHOUT the engine gate held. A non-null `profiler`, or a private
  /// sink in the caller's trace scope (`trace`, slow-statement capture),
  /// forces a batch-of-one that runs under the caller's scope whichever
  /// thread leads it, so neither profiles nor captured spans interleave
  /// waves. A shared wave runs under its leader's scope.
  Status Commit(TxnSnapshot& txn, obs::Profile* profiler = nullptr);

  /// --- Test hooks --------------------------------------------------------

  /// While paused, commits queue up without a leader; Resume (paused =
  /// false) lets one leader drain them — up to max_batch() in ONE wave,
  /// which is exactly what the group-commit batching tests observe.
  void SetCommitPaused(bool paused);
  size_t queued_commits() const;
  void SetMaxBatch(size_t k);
  size_t max_batch() const;
  size_t history_size() const;

 private:
  struct Waiter {
    TxnSnapshot* txn = nullptr;
    obs::Profile* profiler = nullptr;
    obs::TraceScope scope;  ///< the committer's request scope
    uint64_t enqueue_ns = 0;
    Status result = Status::OK();
    bool done = false;

    /// Profiled and privately traced commits get a wave of their own.
    bool solo() const { return profiler != nullptr || scope.sink != nullptr; }
  };

  /// What one committed transaction (or one wave's rule actions) wrote,
  /// retained for first-committer-wins validation of concurrent snapshots.
  struct CommitRecord {
    uint64_t version = 0;
    std::unordered_map<RelationId, DeltaSet> writes;
  };

  /// Pops the next wave off the queue front: up to max_batch_ waiters,
  /// with solo commits always alone in their wave. Requires qmu_.
  std::vector<Waiter*> TakeBatchLocked();

  /// Runs one wave (steps 1–4 of the class comment) under the exclusive
  /// engine gate, filling each waiter's result. Called by the leader with
  /// no locks held.
  void CommitBatch(const std::vector<Waiter*>& batch);

  /// First-committer-wins validation of `txn` against the retained history
  /// and `fresh` (earlier survivors of the wave being built). Requires the
  /// exclusive engine gate.
  Status Validate(const TxnSnapshot& txn,
                  const std::vector<CommitRecord>& fresh) const;
  Status CheckRecord(const TxnSnapshot& txn, const CommitRecord& rec) const;
  Status Conflict(RelationId rel, const CommitRecord& rec,
                  const char* kind) const;

  /// Drops history records no active snapshot can still conflict with and
  /// enforces kMaxHistory. Requires the exclusive engine gate and amu_.
  void PruneHistoryLocked();

  Database& db_;
  rules::RuleManager& rules_;

  std::shared_mutex engine_mu_;
  std::atomic<uint64_t> version_{0};

  /// Commit history, ascending by version; guarded by the exclusive
  /// engine gate (only the commit leader reads or writes it).
  std::deque<CommitRecord> history_;
  /// Records with version <= pruned_through_ were force-pruned (cap), so
  /// snapshots that old cannot be fully validated anymore.
  uint64_t pruned_through_ = 0;
  uint64_t batch_counter_ = 0;

  /// Active snapshots and their begin versions (pins history pruning).
  mutable std::mutex amu_;
  std::unordered_map<TxnSnapshot*, uint64_t> actives_;

  /// Commit queue; never held across the engine gate.
  mutable std::mutex qmu_;
  std::condition_variable qcv_;
  std::deque<Waiter*> queue_;
  bool leader_active_ = false;
  bool paused_ = false;
  size_t max_batch_ = kDefaultMaxBatch;
};

}  // namespace deltamon::txn

#endif  // DELTAMON_TXN_MANAGER_H_
