#include "storage/database.h"

#include <algorithm>

#include "obs/metrics.h"

namespace deltamon {

std::string UpdateEvent::ToString(const Catalog& catalog) const {
  std::string out = op == Op::kInsert ? "+(" : "-(";
  out += catalog.RelationName(relation);
  out += ", ";
  out += tuple.ToString();
  return out + ")";
}

Status Database::ApplyAndLog(RelationId rel, UpdateEvent::Op op,
                             const Tuple& t) {
  BaseRelation* base = catalog_.GetBaseRelation(rel);
  if (base == nullptr) {
    return Status::InvalidArgument("relation id " + std::to_string(rel) +
                                   " is not a stored function");
  }
  DELTAMON_RETURN_IF_ERROR(base->schema().TypeCheck(t));
  bool changed = op == UpdateEvent::Op::kInsert ? base->Insert(t)
                                                : base->Delete(t);
  if (!changed) return Status::OK();  // physical no-op: no event
  undo_log_.push_back(UpdateEvent{rel, op, t});
  ++stats_.events_logged;
  DELTAMON_OBS_COUNT("db.events_logged", 1);
  if (IsMonitored(rel)) FoldIntoPending(undo_log_.back());
  return Status::OK();
}

void Database::FoldIntoPending(const UpdateEvent& e) {
  DeltaSet& delta = pending_deltas_[e.relation];
  if (e.op == UpdateEvent::Op::kInsert) {
    delta.ApplyInsert(e.tuple);
  } else {
    delta.ApplyDelete(e.tuple);
  }
}

Status Database::MaybeImmediateCheck() {
  // Immediate rule processing runs the check phase per *statement* (never
  // per physical event: a Set()'s internal delete+insert pair must not
  // expose its transient state), and never re-enters from rule actions.
  if (!immediate_ || in_check_phase_ || check_phase_ == nullptr) {
    return Status::OK();
  }
  if (!HasPendingChanges()) return Status::OK();
  in_check_phase_ = true;
  Status s = check_phase_(*this);
  in_check_phase_ = false;
  return s;
}

Status Database::Insert(RelationId rel, const Tuple& t) {
  DELTAMON_RETURN_IF_ERROR(ApplyAndLog(rel, UpdateEvent::Op::kInsert, t));
  return MaybeImmediateCheck();
}

Status Database::Delete(RelationId rel, const Tuple& t) {
  DELTAMON_RETURN_IF_ERROR(ApplyAndLog(rel, UpdateEvent::Op::kDelete, t));
  return MaybeImmediateCheck();
}

Status Database::Set(RelationId rel, const Tuple& args, const Tuple& results) {
  BaseRelation* base = catalog_.GetBaseRelation(rel);
  if (base == nullptr) {
    return Status::InvalidArgument("relation id " + std::to_string(rel) +
                                   " is not a stored function");
  }
  if (args.arity() + results.arity() != base->arity()) {
    return Status::TypeError("set " + base->name() + ": arity mismatch");
  }
  // Collect existing tuples with this argument prefix, then delete them:
  // a lookup on the first argument column, then a check of the others. A
  // function without arguments loses every tuple.
  std::vector<Tuple> old_tuples;
  if (args.arity() == 0) {
    old_tuples.assign(base->rows().begin(), base->rows().end());
  } else {
    base->ForEachWithValue(0, args[0], [&](const Tuple& t) {
      for (size_t i = 1; i < args.arity(); ++i) {
        if (!(t[i] == args[i])) return true;
      }
      old_tuples.push_back(t);
      return true;
    });
  }
  for (const Tuple& t : old_tuples) {
    DELTAMON_RETURN_IF_ERROR(ApplyAndLog(rel, UpdateEvent::Op::kDelete, t));
  }
  DELTAMON_RETURN_IF_ERROR(
      ApplyAndLog(rel, UpdateEvent::Op::kInsert, args.Concat(results)));
  return MaybeImmediateCheck();
}

Status Database::InjectForeignDelta(RelationId rel, const DeltaSet& delta) {
  if (!catalog_.IsForeign(rel)) {
    return Status::InvalidArgument("relation '" + catalog_.RelationName(rel) +
                                   "' is not a foreign function");
  }
  if (IsMonitored(rel)) {
    DELTAMON_OBS_COUNT("db.foreign_delta_tuples", delta.size());
    pending_deltas_[rel].DeltaUnion(delta);
    DELTAMON_RETURN_IF_ERROR(MaybeImmediateCheck());
  }
  return Status::OK();
}

Status Database::ApplyOverlay(
    const std::unordered_map<RelationId, DeltaSet>& writes) {
  std::vector<RelationId> rels;
  rels.reserve(writes.size());
  for (const auto& [rel, overlay] : writes) rels.push_back(rel);
  std::sort(rels.begin(), rels.end());
  for (RelationId rel : rels) {
    const DeltaSet& overlay = writes.at(rel);
    for (const Tuple& t : SortedTuples(overlay.minus())) {
      DELTAMON_RETURN_IF_ERROR(ApplyAndLog(rel, UpdateEvent::Op::kDelete, t));
    }
    for (const Tuple& t : SortedTuples(overlay.plus())) {
      DELTAMON_RETURN_IF_ERROR(ApplyAndLog(rel, UpdateEvent::Op::kInsert, t));
    }
  }
  return Status::OK();
}

Status Database::CommitWithoutCheck() {
  DELTAMON_OBS_RECORD("db.tx_events", undo_log_.size());
  DELTAMON_OBS_GAUGE_SET("db.undo_log_size", 0);
  undo_log_.clear();
  pending_deltas_.clear();
  ++stats_.commits;
  DELTAMON_OBS_COUNT("db.commits", 1);
  return Status::OK();
}

Status Database::Commit() {
  // Timed end to end: the deferred check phase dominates commit latency,
  // which is exactly the number the paper's figures track.
  DELTAMON_OBS_SCOPED_TIMER(commit_timer, "db.commit_ns");
  if (check_phase_ != nullptr && !in_check_phase_) {
    in_check_phase_ = true;
    Status s = check_phase_(*this);
    in_check_phase_ = false;
    if (!s.ok()) return s;
  }
  return CommitWithoutCheck();
}

Status Database::Rollback() {
  for (auto it = undo_log_.rbegin(); it != undo_log_.rend(); ++it) {
    BaseRelation* base = catalog_.GetBaseRelation(it->relation);
    if (base == nullptr) {
      return Status::Internal("undo log references unknown relation");
    }
    // Invert the logged operation; these compensating updates are not
    // themselves logged or monitored.
    if (it->op == UpdateEvent::Op::kInsert) {
      base->Delete(it->tuple);
    } else {
      base->Insert(it->tuple);
    }
  }
  DELTAMON_OBS_RECORD("db.tx_events", undo_log_.size());
  DELTAMON_OBS_GAUGE_SET("db.undo_log_size", 0);
  undo_log_.clear();
  pending_deltas_.clear();
  ++stats_.rollbacks;
  DELTAMON_OBS_COUNT("db.rollbacks", 1);
  return Status::OK();
}

void Database::MarkMonitored(RelationId rel) { ++monitor_counts_[rel]; }

void Database::MarkMonitoredFromTransactionStart(RelationId rel) {
  if (monitor_counts_[rel]++ > 0) return;
  for (const UpdateEvent& e : undo_log_) {
    if (e.relation == rel) FoldIntoPending(e);
  }
}

void Database::UnmarkMonitored(RelationId rel) {
  auto it = monitor_counts_.find(rel);
  if (it == monitor_counts_.end()) return;
  if (--it->second <= 0) {
    monitor_counts_.erase(it);
    pending_deltas_.erase(rel);
  }
}

bool Database::HasPendingChanges() const {
  for (const auto& [rel, delta] : pending_deltas_) {
    if (!delta.empty()) return true;
  }
  return false;
}

std::unordered_map<RelationId, DeltaSet> Database::TakePendingDeltas() {
  std::unordered_map<RelationId, DeltaSet> out;
  out.swap(pending_deltas_);
  // Drop empty Δ-sets (fully cancelled updates trigger nothing).
  for (auto it = out.begin(); it != out.end();) {
    it = it->second.empty() ? out.erase(it) : std::next(it);
  }
#if DELTAMON_OBS_ENABLED
  if (obs::Enabled() && !out.empty()) {
    size_t total = 0;
    for (const auto& [rel, delta] : out) total += delta.size();
    DELTAMON_OBS_RECORD("db.delta_tuples_taken", total);
  }
#endif
  return out;
}

}  // namespace deltamon
