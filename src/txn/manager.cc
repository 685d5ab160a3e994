#include "txn/manager.h"

#include <algorithm>
#include <chrono>
#include <string>

#include "obs/metrics.h"

namespace deltamon::txn {

namespace {

uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

}  // namespace

void TransactionManager::Begin(TxnSnapshot& txn) {
  uint64_t v = current_version();
  txn.Reset(v);
  std::lock_guard<std::mutex> lk(amu_);
  actives_[&txn] = v;
}

void TransactionManager::Release(TxnSnapshot& txn) {
  std::lock_guard<std::mutex> lk(amu_);
  actives_.erase(&txn);
}

Status TransactionManager::Commit(TxnSnapshot& txn, obs::Profile* profiler) {
  Waiter w;
  w.txn = &txn;
  w.profiler = profiler;
  w.scope = obs::CurrentTraceScope();
  w.enqueue_ns = NowNs();

  std::unique_lock<std::mutex> lk(qmu_);
  queue_.push_back(&w);
  while (!w.done) {
    if (!leader_active_ && !paused_) {
      // Leader election: the first unblocked waiter leads, committing
      // front-of-queue waves until its own transaction is done (or the
      // queue is paused), then hands leadership to whoever is left.
      leader_active_ = true;
      while (!w.done && !paused_) {
        std::vector<Waiter*> batch = TakeBatchLocked();
        lk.unlock();
        CommitBatch(batch);
        lk.lock();
        for (Waiter* b : batch) b->done = true;
        qcv_.notify_all();
      }
      leader_active_ = false;
      qcv_.notify_all();
    } else {
      qcv_.wait(lk);
    }
  }
  return w.result;
}

std::vector<TransactionManager::Waiter*> TransactionManager::TakeBatchLocked() {
  std::vector<Waiter*> batch;
  while (!queue_.empty() && batch.size() < max_batch_) {
    Waiter* w = queue_.front();
    // Solo commits run alone: a per-literal profile or a private span
    // capture must describe one transaction's check phase, not a shared
    // wave.
    if (w->solo() && !batch.empty()) break;
    queue_.pop_front();
    batch.push_back(w);
    if (w->solo()) break;
  }
  return batch;
}

void TransactionManager::CommitBatch(const std::vector<Waiter*>& batch) {
  // A solo wave belongs to its committer's request, whichever thread leads
  // it; a shared wave is traced under the leader's own scope.
  const Waiter& front = *batch.front();
  obs::ScopedTrace trace(front.solo() ? front.scope
                                      : obs::CurrentTraceScope());
  std::unique_lock<std::shared_mutex> gate(engine_mu_);
  const uint64_t start_ns = NowNs();
  const uint64_t base_version = version_.load(std::memory_order_relaxed);
  uint64_t next_version = base_version;

  // 1. Validate in queue order; survivors' tentative records join `fresh`
  // so later batch members validate against them too (first committer
  // wins *within* the wave as well).
  std::vector<CommitRecord> fresh;
  std::vector<Waiter*> survivors;
  for (Waiter* w : batch) {
    DELTAMON_OBS_RECORD("txn.commit_queue_wait_ns", start_ns - w->enqueue_ns);
    Status v = Validate(*w->txn, fresh);
    if (!v.ok()) {
      w->result = std::move(v);
      DELTAMON_OBS_COUNT("txn.aborts.conflict", 1);
      continue;
    }
    CommitRecord rec;
    rec.version = ++next_version;
    rec.writes = w->txn->writes();
    fresh.push_back(std::move(rec));
    survivors.push_back(w);
  }

  uint64_t check_ns = 0;
  if (!survivors.empty()) {
    // 2. Apply the surviving overlays — undo-logged, folded into the
    // pending Δ-sets of monitored relations, no immediate check.
    Status wave = Status::OK();
    const size_t pre = db_.LogSize();
    for (Waiter* w : survivors) {
      wave = db_.ApplyOverlay(w->txn->writes());
      if (!wave.ok()) break;
    }
    const size_t post = db_.LogSize();

    // 3. ONE deferred check phase over the unioned Δ-sets of the wave.
    if (wave.ok()) {
      obs::Profile* profiler =
          batch.size() == 1 ? batch.front()->profiler : nullptr;
      if (profiler != nullptr) rules_.SetProfiler(profiler);
      // Versions were pre-assigned during validation, so the wave's last
      // version is already known: stamp it on the rule manager (same
      // attach/detach discipline as the profiler) so firing provenance
      // and wave capture record the version their changes commit at.
      rules_.SetCommitVersion(next_version);
      const uint64_t c0 = NowNs();
      wave = rules_.CheckPhase(db_);
      check_ns = NowNs() - c0;
      rules_.SetCommitVersion(0);
      if (profiler != nullptr) rules_.SetProfiler(nullptr);
    }

    if (!wave.ok()) {
      // A failed wave takes every survivor down: physically undo all
      // uncommitted events (including the applied overlays) and report
      // the — non-retryable — error to each. Versions were never
      // published, so concurrent snapshots are unaffected.
      db_.Rollback();
      for (Waiter* w : survivors) w->result = wave;
      survivors.clear();
      fresh.clear();
      next_version = base_version;
    } else {
      // 4. Rule-action writes (the undo-log tail beyond the applied
      // overlays) plus any direct non-transactional writes that predated
      // the wave (e.g. `create instances` under DDL) become one extra
      // history record, so concurrent snapshots that read what an action
      // rewrote conflict like against any other committer.
      CommitRecord extra;
      const std::vector<UpdateEvent>& log = db_.UndoLog();
      auto fold = [&extra](const UpdateEvent& e) {
        DeltaSet& d = extra.writes[e.relation];
        if (e.op == UpdateEvent::Op::kInsert) {
          d.ApplyInsert(e.tuple);
        } else {
          d.ApplyDelete(e.tuple);
        }
      };
      for (size_t i = 0; i < pre; ++i) fold(log[i]);
      for (size_t i = post; i < log.size(); ++i) fold(log[i]);
      for (auto it = extra.writes.begin(); it != extra.writes.end();) {
        it = it->second.empty() ? extra.writes.erase(it) : std::next(it);
      }
      if (!extra.writes.empty()) {
        extra.version = ++next_version;
        fresh.push_back(std::move(extra));
      }

      // Publish: stamp per-relation commit versions, retain the records,
      // advance the version clock, and clear the log + pending Δ-sets.
      for (CommitRecord& rec : fresh) {
        for (const auto& [rel, delta] : rec.writes) {
          if (BaseRelation* base = db_.catalog().GetBaseRelation(rel)) {
            base->set_last_commit_version(rec.version);
          }
        }
        history_.push_back(std::move(rec));
      }
      version_.store(next_version, std::memory_order_release);
      db_.CommitWithoutCheck();

      const uint64_t batch_id = ++batch_counter_;
      DELTAMON_OBS_COUNT("txn.batches", 1);
      DELTAMON_OBS_COUNT("txn.commits", survivors.size());
      DELTAMON_OBS_RECORD("txn.batch_size", survivors.size());
      for (size_t i = 0; i < survivors.size(); ++i) {
        Waiter* w = survivors[i];
        w->result = Status::OK();
        w->txn->last_commit = TxnSnapshot::CommitInfo{
            /*version=*/base_version + i + 1,
            /*batch_id=*/batch_id,
            /*batch_size=*/survivors.size(),
            /*queue_wait_ns=*/start_ns - w->enqueue_ns,
            /*check_ns=*/check_ns};
      }
    }
  }

  // Every batch member — committed, conflicted, or failed — restarts at
  // the (possibly advanced) current version: overlays and footprints are
  // discarded, so a retry re-runs its statements against fresh state.
  {
    std::lock_guard<std::mutex> alk(amu_);
    const uint64_t v = version_.load(std::memory_order_relaxed);
    for (Waiter* w : batch) {
      w->txn->Reset(v);
      actives_[w->txn] = v;
    }
    PruneHistoryLocked();
  }
}

Status TransactionManager::Validate(
    const TxnSnapshot& txn, const std::vector<CommitRecord>& fresh) const {
  const uint64_t begin = txn.begin_version();

  // Relation-level pre-filter: if nothing this transaction touched has
  // committed since its snapshot, no record can conflict — the common
  // (disjoint) case never walks the history.
  auto changed_since = [&](RelationId rel) {
    const BaseRelation* base = db_.catalog().GetBaseRelation(rel);
    return base != nullptr && base->last_commit_version() > begin;
  };
  bool maybe = false;
  for (const auto& [rel, delta] : txn.writes()) {
    if (changed_since(rel)) {
      maybe = true;
      break;
    }
  }
  if (!maybe) {
    for (const auto& [rel, fp] : txn.reads()) {
      if (changed_since(rel)) {
        maybe = true;
        break;
      }
    }
  }
  if (maybe) {
    if (begin < pruned_through_) {
      return Status::TxnConflict(
          "snapshot predates retained commit history; retry");
    }
    // History is ascending by version; skip records the snapshot saw.
    auto it = std::partition_point(
        history_.begin(), history_.end(),
        [begin](const CommitRecord& rec) { return rec.version <= begin; });
    for (; it != history_.end(); ++it) {
      DELTAMON_RETURN_IF_ERROR(CheckRecord(txn, *it));
    }
  }
  // Earlier survivors of the wave being built always postdate the
  // snapshot (their versions are not yet stamped, so the pre-filter
  // cannot vouch for them).
  for (const CommitRecord& rec : fresh) {
    DELTAMON_RETURN_IF_ERROR(CheckRecord(txn, rec));
  }
  return Status::OK();
}

Status TransactionManager::CheckRecord(const TxnSnapshot& txn,
                                       const CommitRecord& rec) const {
  // Write-write at tuple granularity: two transactions may append
  // disjoint tuples to the same relation, but not touch the same tuple.
  for (const auto& [rel, mine] : txn.writes()) {
    auto it = rec.writes.find(rel);
    if (it == rec.writes.end()) continue;
    const DeltaSet& theirs = it->second;
    auto touches = [&theirs](const TupleSet& side) {
      for (const Tuple& t : side) {
        if (theirs.plus().contains(t) || theirs.minus().contains(t)) {
          return true;
        }
      }
      return false;
    };
    if (touches(mine.plus()) || touches(mine.minus())) {
      return Conflict(rel, rec, "write-write");
    }
  }
  // Read-write at scan-pattern granularity: a committed tuple matching
  // any pattern this transaction read with means the read would answer
  // differently today than it did.
  for (const auto& [rel, fp] : txn.reads()) {
    auto it = rec.writes.find(rel);
    if (it == rec.writes.end()) continue;
    if (fp.Overlaps(it->second)) return Conflict(rel, rec, "read-write");
  }
  return Status::OK();
}

Status TransactionManager::Conflict(RelationId rel, const CommitRecord& rec,
                                    const char* kind) const {
  return Status::TxnConflict(
      std::string(kind) + " conflict on '" + db_.catalog().RelationName(rel) +
      "' with a transaction committed at v" + std::to_string(rec.version) +
      "; retry the transaction");
}

void TransactionManager::PruneHistoryLocked() {
  uint64_t floor = version_.load(std::memory_order_relaxed);
  for (const auto& [snap, begin] : actives_) floor = std::min(floor, begin);
  while (!history_.empty() && history_.front().version <= floor) {
    history_.pop_front();
  }
  while (history_.size() > kMaxHistory) {
    pruned_through_ = std::max(pruned_through_, history_.front().version);
    history_.pop_front();
  }
}

void TransactionManager::SetCommitPaused(bool paused) {
  std::lock_guard<std::mutex> lk(qmu_);
  paused_ = paused;
  qcv_.notify_all();
}

size_t TransactionManager::queued_commits() const {
  std::lock_guard<std::mutex> lk(qmu_);
  return queue_.size();
}

void TransactionManager::SetMaxBatch(size_t k) {
  std::lock_guard<std::mutex> lk(qmu_);
  max_batch_ = k == 0 ? 1 : k;
}

size_t TransactionManager::max_batch() const {
  std::lock_guard<std::mutex> lk(qmu_);
  return max_batch_;
}

size_t TransactionManager::history_size() const { return history_.size(); }

}  // namespace deltamon::txn
