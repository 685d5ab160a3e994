#include "net/executor.h"

#include <optional>
#include <shared_mutex>
#include <utility>

#include "obs/metrics.h"
#include "obs/profile.h"
#include "obs/span.h"
#include "obs/trace.h"

namespace deltamon::net {

Result<amosql::QueryResult> Executor::Execute(amosql::Session& session,
                                              const std::string& source,
                                              obs::RequestRecord* record) {
  // A request's latency starts when its frame was read, so it includes
  // the queue wait; a call without a record starts the clock here.
  [[maybe_unused]] const uint64_t start_ns =
      record != nullptr ? record->enqueue_ns : obs::MonotonicNowNs();
  Result<amosql::QueryResult> result = [&]() -> Result<amosql::QueryResult> {
    if (record == nullptr) return amosql::ExecuteStatement(session, source);

    record->dequeue_ns = obs::MonotonicNowNs();
    DELTAMON_OBS_RECORD("net.queue_wait_ns",
                        record->dequeue_ns - record->enqueue_ns);
    amosql::StatementOptions options;
    options.context = &record->context;

    // Every span the statement produces — check phase, waves, clause
    // evaluations, on any propagation worker thread — carries this
    // request's trace id. Slow-statement capture: with the threshold armed,
    // the scope also carries a private ring and every literal is profiled,
    // so an over-threshold statement's full evidence is already in hand
    // when it finishes; no other request's spans can reach the ring.
    // Threshold 0 (the default) skips all of this: one relaxed load per
    // statement.
    const uint64_t slow_ns = obs::SlowLog::Global().threshold_ns();
    std::optional<obs::RingTraceSink> ring;
    obs::Profile profile;
    obs::TraceScope scope{record->context.trace_id, nullptr};
    if (slow_ns > 0) {
      ring.emplace(/*capacity=*/65536);
      scope.sink = &*ring;
      options.profiler = &profile;
    }
    obs::ScopedTrace trace(scope);
    // If this statement batch commits, the snapshot's last_commit changes
    // batch id; diffing it across execution tells us whether (and in which
    // wave) this request's transaction committed.
    const uint64_t batch_before = session.txn_snapshot().last_commit.batch_id;
    Result<amosql::QueryResult> r =
        amosql::ExecuteStatement(session, source, options);
    record->exec_end_ns = obs::MonotonicNowNs();
    const uint64_t exec_ns = record->exec_end_ns - record->dequeue_ns;
    DELTAMON_OBS_RECORD("net.exec_ns", exec_ns);
    const auto& commit = session.txn_snapshot().last_commit;
    if (commit.batch_id != batch_before) {
      record->commit_version = commit.version;
      record->commit_batch = commit.batch_id;
      record->commit_batch_size = commit.batch_size;
      record->commit_queue_wait_ns = commit.queue_wait_ns;
      record->commit_check_ns = commit.check_ns;
    }
    if (slow_ns > 0 && exec_ns >= slow_ns) {
      obs::SlowRecord slow;
      slow.context = record->context;
      slow.statement = source;
      slow.ok = r.ok();
      slow.elapsed_ns = exec_ns;
      const std::vector<obs::TraceEvent> events = ring->Snapshot();
      slow.span_tree = obs::FormatSpanTree(events);
      slow.chrome_trace = obs::ChromeTraceJson(events);
      slow.profile_text = profile.Format(/*include_time=*/true);
      slow.profile_json = profile.ToJson();
      obs::SlowLog::Global().Record(std::move(slow));
    }
    record->ok = r.ok();
    return r;
  }();
  DELTAMON_OBS_COUNT("net.statements_served", 1);
  if (!result.ok()) DELTAMON_OBS_COUNT("net.statement_errors", 1);
  DELTAMON_OBS_RECORD("net.statement_latency_ns",
                      obs::MonotonicNowNs() - start_ns);
  return result;
}

Result<std::string> Executor::NetworkDot(const std::string& rule) {
  std::unique_lock<std::shared_mutex> gate(engine_.txn.engine_mutex());
  DELTAMON_ASSIGN_OR_RETURN(const core::PropagationNetwork* net,
                            engine_.rules.network());
  if (net == nullptr) {
    return Status::NotFound("propagation network is empty: no active rules");
  }
  const Catalog& catalog = engine_.db.catalog();
  std::vector<RelationId> roots;
  if (rule.empty()) {
    roots.push_back(kInvalidRelationId);  // the whole network
  } else {
    DELTAMON_ASSIGN_OR_RETURN(rules::RuleId id, engine_.rules.FindRule(rule));
    DELTAMON_ASSIGN_OR_RETURN(roots, engine_.rules.MonitoredConditions(id));
  }
  std::string out;
  for (RelationId root : roots) out += net->ToDot(catalog, root);
  return out;
}

}  // namespace deltamon::net
