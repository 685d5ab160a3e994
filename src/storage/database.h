#ifndef DELTAMON_STORAGE_DATABASE_H_
#define DELTAMON_STORAGE_DATABASE_H_

#include <functional>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common/status.h"
#include "common/tuple.h"
#include "delta/delta_set.h"
#include "storage/catalog.h"

namespace deltamon {

/// One physical update event, as written to the logical undo/redo log
/// (paper §4.1).
struct UpdateEvent {
  enum class Op { kInsert, kDelete };
  RelationId relation = kInvalidRelationId;
  Op op = Op::kInsert;
  Tuple tuple;

  /// "+(name, tuple)" / "-(name, tuple)".
  std::string ToString(const Catalog& catalog) const;
};

/// The transactional in-memory database. A Database always has one open
/// transaction; updates apply immediately to storage and append to the
/// undo/redo log. Commit() runs the deferred check phase (installed by the
/// rule manager) and then forgets the log; Rollback() physically undoes
/// every logged event.
///
/// Δ-set accumulation (paper §4.1): relations marked *monitored* — the
/// influents of some activated rule condition — additionally fold each
/// physical event into a per-relation Δ-set via ∪Δ, so only net logical
/// changes survive. Updates to unmonitored relations carry no monitoring
/// overhead beyond the undo log append.
class Database {
 public:
  Database() = default;
  Database(const Database&) = delete;
  Database& operator=(const Database&) = delete;

  Catalog& catalog() { return catalog_; }
  const Catalog& catalog() const { return catalog_; }

  /// --- Updates ---------------------------------------------------------

  /// Inserts `t` into stored relation `rel` (type-checked). Duplicate
  /// inserts are no-ops that generate no event.
  Status Insert(RelationId rel, const Tuple& t);

  /// Deletes `t` from `rel`; deleting an absent tuple is a no-op.
  Status Delete(RelationId rel, const Tuple& t);

  /// Function update `set f(args) = results`: deletes every existing tuple
  /// whose argument columns equal `args`, then inserts (args ++ results).
  /// Generates the paper's two-event sequence per replaced tuple.
  Status Set(RelationId rel, const Tuple& args, const Tuple& results);

  /// User-defined differential for a foreign function (paper §8): informs
  /// the monitor that the external extent of `rel` changed by `delta`.
  /// The change is folded into the pending Δ-sets like any update, but it
  /// is NOT transactional: the external world cannot be rolled back, so
  /// nothing is written to the undo log. The foreign implementation must
  /// already return the new extent when this is called.
  Status InjectForeignDelta(RelationId rel, const DeltaSet& delta);

  /// --- Transaction boundary --------------------------------------------

  /// Runs the deferred check phase (if installed), then makes all logged
  /// updates durable by clearing the log and pending Δ-sets. If the check
  /// phase fails the transaction stays open.
  Status Commit();

  /// Applies one transaction's buffered write overlay (per-relation net
  /// <Δ+, Δ−>) to storage: deletions then insertions, in sorted relation
  /// and tuple order so replay is deterministic. Each event goes through
  /// the normal apply-and-log path — undo logged, folded into the pending
  /// Δ-sets of monitored relations — but never triggers an immediate
  /// check: the group-commit leader batches several overlays into one
  /// check-phase wave (∪Δ before propagation, paper §4.5).
  Status ApplyOverlay(const std::unordered_map<RelationId, DeltaSet>& writes);

  /// Commit for callers that already ran the check phase themselves (the
  /// transaction manager's commit leader): clears the undo log and pending
  /// Δ-sets and counts the commit, without re-entering the check phase.
  Status CommitWithoutCheck();

  /// Physically undoes every logged event in reverse order and clears the
  /// log and pending Δ-sets.
  Status Rollback();

  /// Number of events in the current transaction's log.
  size_t LogSize() const { return undo_log_.size(); }
  const std::vector<UpdateEvent>& UndoLog() const { return undo_log_; }

  /// Installs the deferred rule check phase, invoked by Commit(). The rule
  /// manager owns the callback.
  void SetCheckPhase(std::function<Status(Database&)> check_phase) {
    check_phase_ = std::move(check_phase);
  }

  /// Immediate rule processing (paper §1: the technique "can also be used
  /// for immediate rule processing"): when enabled, the check phase runs
  /// after every update statement instead of waiting for Commit(). Updates
  /// performed by rule actions do not re-enter (the check phase loop
  /// already iterates to a fixpoint).
  void SetImmediateRuleProcessing(bool on) { immediate_ = on; }
  bool immediate_rule_processing() const { return immediate_; }

  /// --- Monitored relations (rule condition influents) -------------------

  /// Reference-counted: each activated rule marks its influents.
  void MarkMonitored(RelationId rel);
  /// MarkMonitored for a relation an active rule starts to read mid-
  /// transaction (a definition added after activation): when `rel` was not
  /// monitored yet, its events logged in the open transaction are folded
  /// into its pending Δ-set, so the check phase sees the transaction's
  /// whole net change to it.
  void MarkMonitoredFromTransactionStart(RelationId rel);
  void UnmarkMonitored(RelationId rel);
  bool IsMonitored(RelationId rel) const {
    return monitor_counts_.contains(rel);
  }

  /// Whether any monitored relation accumulated a non-empty Δ-set.
  bool HasPendingChanges() const;

  /// Moves out the accumulated Δ-sets of monitored base relations and
  /// resets the accumulators; the check phase calls this once per rule
  /// processing round so action-induced updates start a fresh round.
  std::unordered_map<RelationId, DeltaSet> TakePendingDeltas();

  /// Read-only view of the accumulated Δ-sets.
  const std::unordered_map<RelationId, DeltaSet>& PendingDeltas() const {
    return pending_deltas_;
  }

  /// --- Statistics (for benchmarks) --------------------------------------

  struct Stats {
    uint64_t events_logged = 0;
    uint64_t commits = 0;
    uint64_t rollbacks = 0;
  };
  const Stats& stats() const { return stats_; }

 private:
  Status ApplyAndLog(RelationId rel, UpdateEvent::Op op, const Tuple& t);
  /// Folds a logged event into its relation's pending Δ-set (∪Δ).
  void FoldIntoPending(const UpdateEvent& e);
  /// Runs the check phase mid-transaction when immediate mode is on.
  Status MaybeImmediateCheck();

  Catalog catalog_;
  std::vector<UpdateEvent> undo_log_;
  std::unordered_map<RelationId, int> monitor_counts_;
  std::unordered_map<RelationId, DeltaSet> pending_deltas_;
  std::function<Status(Database&)> check_phase_;
  bool in_check_phase_ = false;
  bool immediate_ = false;
  Stats stats_;
};

}  // namespace deltamon

#endif  // DELTAMON_STORAGE_DATABASE_H_
