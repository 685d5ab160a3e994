#include "amosql/session.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <memory>
#include <mutex>
#include <shared_mutex>

#include "objectlog/eval.h"
#include "obs/flight_recorder.h"
#include "obs/metrics.h"
#include "obs/provenance.h"
#include "obs/report.h"
#include "obs/span.h"
#include "obs/trace.h"
#include "obs/wave_recorder.h"

namespace deltamon::amosql {

using objectlog::Clause;
using objectlog::EvalState;
using objectlog::Evaluator;
using objectlog::StateContext;

namespace {

/// Uniform refusal for provenance/wave statements in OBS=OFF builds: the
/// Null twins would silently record nothing, which reads as "no firings"
/// — an explicit error is the honest answer.
Status ObsDisabled(const char* what) {
  return Status::FailedPrecondition(
      std::string(what) +
      ": observability disabled (built with DELTAMON_OBS=OFF)");
}

/// Renders one WaveLineage::Export node as indented text:
///   Δ+cnd_monitor(...)  [via Δcnd/Δ+quantity]
///     Δ+quantity(...)  (base)
void RenderLineageNode(const obs::Json& node, int indent, std::string* out) {
  out->append(static_cast<size_t>(indent) * 2, ' ');
  const obs::Json* polarity = node.Get("polarity");
  const obs::Json* relation = node.Get("relation");
  const obs::Json* row = node.Get("row");
  *out += "Δ";
  if (polarity != nullptr) *out += polarity->as_string();
  if (relation != nullptr) *out += relation->as_string();
  if (row != nullptr) *out += " " + row->as_string();
  if (const obs::Json* via = node.Get("via")) {
    *out += "  [via " + via->as_string() + "]";
  }
  if (node.contains("base")) *out += "  (base)";
  if (node.contains("unknown")) *out += "  (unknown)";
  if (node.contains("truncated")) *out += "  (truncated)";
  *out += "\n";
  if (const obs::Json* inputs = node.Get("inputs")) {
    for (const obs::Json& child : inputs->array_items()) {
      RenderLineageNode(child, indent + 1, out);
    }
  }
}

}  // namespace

std::string QueryResult::ToString() const {
  std::string out;
  for (const Tuple& t : rows) {
    out += t.ToString();
    out += "\n";
  }
  out += report;
  return out;
}

Result<QueryResult> ExecuteStatement(Session& session,
                                     const std::string& source) {
  return session.Execute(source);
}

Result<QueryResult> ExecuteStatement(Session& session,
                                     const std::string& source,
                                     const StatementOptions& options) {
  // Root span of everything this statement evaluates; inherits the trace
  // id the executor installed, so the whole tree links to the request.
  DELTAMON_OBS_SPAN(stmt_span, "amosql", "statement");
  if (options.context != nullptr) {
    stmt_span.AddField("connection",
                       static_cast<int64_t>(options.context->connection_id));
    stmt_span.AddField(
        "statement_ordinal",
        static_cast<int64_t>(options.context->statement_ordinal));
  }
  if (options.profiler != nullptr) {
    return session.ExecuteProfiled(source, options.profiler);
  }
  return session.Execute(source);
}

std::string FormatResult(const QueryResult& result) {
  std::string out;
  for (const Tuple& t : result.rows) {
    out += t.ToString();
    out += "\n";
  }
  if (!result.rows.empty()) {
    out += "(" + std::to_string(result.rows.size()) + " rows)\n";
  }
  out += result.report;
  return out;
}

Result<Value> Session::GetInterfaceVar(const std::string& name) const {
  auto it = env_.find(name);
  if (it == env_.end()) {
    return Status::NotFound("undefined interface variable :" + name);
  }
  return it->second;
}

Result<RelationId> Session::ExtentRelation(TypeId type) {
  auto it = extents_.find(type);
  if (it != extents_.end()) return it->second;
  const ObjectType* meta = engine_.db.catalog().GetType(type);
  if (meta == nullptr) {
    return Status::NotFound("unknown type id " + std::to_string(type));
  }
  FunctionSignature sig;
  sig.argument_types.push_back(ColumnType{ValueKind::kObject, type});
  DELTAMON_ASSIGN_OR_RETURN(
      RelationId rel, engine_.db.catalog().CreateStoredFunction(
                          "_extent_" + meta->name, std::move(sig)));
  extents_[type] = rel;
  return rel;
}

Result<QueryResult> Session::Execute(const std::string& source) {
  DELTAMON_ASSIGN_OR_RETURN(std::vector<Statement> program, Parse(source));
  QueryResult last;
  for (const Statement& stmt : program) {
    DELTAMON_RETURN_IF_ERROR(ExecStatement(stmt, &last));
  }
  return last;
}

Result<QueryResult> Session::ExecuteProfiled(const std::string& source,
                                             obs::Profile* profile) {
  // Same attachment discipline as ExecExplainAnalyze: session evaluators
  // pick the profile up through active_profiler_, and commit passes it to
  // the transaction manager, which attaches it to the shared rule manager
  // for this transaction's (solo) wave only. Restored even on error so a
  // failed slow statement cannot leak the profiler into the next one.
  obs::Profile* const saved = active_profiler_;
  active_profiler_ = profile;
  Result<QueryResult> result = Execute(source);
  active_profiler_ = saved;
  return result;
}

Status Session::ExecStatement(const Statement& stmt, QueryResult* last) {
  // Locking happens here, at leaf statement dispatch: reads and buffered
  // DML share the engine gate, DDL/admin statements that mutate shared
  // engine state take it exclusively, and transaction-boundary statements
  // (begin/commit/abort) do their own locking — commit in particular must
  // enter the group-commit queue without the gate held, since the commit
  // leader takes it exclusively for the wave. Wrapper statements (profile,
  // trace, explain analyze) take no lock themselves — their inner
  // statement re-dispatches and locks — so `profile commit;` cannot
  // self-deadlock on the non-reentrant gate.
  return std::visit(
      [this, last](const auto& node) -> Status {
        using T = std::decay_t<decltype(node)>;
        if constexpr (std::is_same_v<T, CreateTypeStmt>) {
          std::unique_lock lock(gate());
          return engine_.db.catalog().CreateType(node.name).status();
        } else if constexpr (std::is_same_v<T, CreateFunctionStmt>) {
          std::unique_lock lock(gate());
          return ExecCreateFunction(node);
        } else if constexpr (std::is_same_v<T, CreateRuleStmt>) {
          std::unique_lock lock(gate());
          return ExecCreateRule(node);
        } else if constexpr (std::is_same_v<T, CreateInstancesStmt>) {
          std::unique_lock lock(gate());
          return ExecCreateInstances(node);
        } else if constexpr (std::is_same_v<T, UpdateStmt>) {
          std::shared_lock lock(gate());
          RefreshSnapshotLocked();
          return ExecUpdate(node);
        } else if constexpr (std::is_same_v<T, ActivateStmt>) {
          std::unique_lock lock(gate());
          return ExecActivate(node);
        } else if constexpr (std::is_same_v<T, SelectStmt>) {
          std::shared_lock lock(gate());
          RefreshSnapshotLocked();
          return ExecSelect(node, last);
        } else if constexpr (std::is_same_v<T, BeginStmt>) {
          return ExecBegin();
        } else if constexpr (std::is_same_v<T, CommitStmt>) {
          return ExecCommit();
        } else if constexpr (std::is_same_v<T, ProfileStmt>) {
          return ExecProfile(node, last);
        } else if constexpr (std::is_same_v<T, ShowMetricsStmt>) {
          if (node.prometheus) {
            // Pure exposition text (no header) so the output can be served
            // to a scraper by copy-paste or file tail.
            last->report +=
                obs::FormatPrometheus(obs::Registry::Global().Snapshot());
          } else {
            last->report += "METRICS\n" + obs::FormatSnapshot(
                                              obs::Registry::Global().Snapshot());
          }
          return Status::OK();
        } else if constexpr (std::is_same_v<T, ExplainAnalyzeStmt>) {
          return ExecExplainAnalyze(node, last);
        } else if constexpr (std::is_same_v<T, AnalyzeRuleStmt>) {
          std::unique_lock lock(gate());
          return ExecAnalyzeRule(node, last);
        } else if constexpr (std::is_same_v<T, TraceStmt>) {
          return ExecTrace(node, last);
        } else if constexpr (std::is_same_v<T, ShowNetworkStmt>) {
          // Exclusive: network() rebuilds the propagation network lazily.
          std::unique_lock lock(gate());
          return ExecShowNetwork(node, last);
        } else if constexpr (std::is_same_v<T, ShowSlowStmt>) {
          return ExecShowSlow(last);
        } else if constexpr (std::is_same_v<T, ResetMetricsStmt>) {
          std::unique_lock lock(gate());
          obs::Registry::Global().Reset();
          // Node attribution belongs to the same observable state; a reset
          // gives the next measurement a clean slate for both.
          Result<const core::PropagationNetwork*> net = engine_.rules.network();
          if (net.ok() && net.value() != nullptr) net.value()->ResetStats();
          last->report += "METRICS RESET\n";
          return Status::OK();
        } else if constexpr (std::is_same_v<T, SetThreadsStmt>) {
          std::unique_lock lock(gate());
          engine_.rules.SetNumThreads(
              static_cast<size_t>(node.num_threads));
          last->report += "THREADS " +
                          std::to_string(engine_.rules.num_threads()) + "\n";
          return Status::OK();
        } else if constexpr (std::is_same_v<T, SetKernelsStmt>) {
          std::unique_lock lock(gate());
          engine_.rules.SetKernelsEnabled(node.on);
          last->report +=
              std::string("KERNELS ") + (node.on ? "on" : "off") + "\n";
          return Status::OK();
        } else if constexpr (std::is_same_v<T, ShowSettingsStmt>) {
          std::shared_lock lock(gate());
          last->report += "SETTINGS\n";
          last->report += "  threads " +
                          std::to_string(engine_.rules.num_threads()) + "\n";
          last->report += std::string("  kernels ") +
                          (engine_.rules.kernels_enabled() ? "on" : "off") +
                          "\n";
          last->report +=
              "  slow_ms " +
              std::to_string(obs::SlowLog::Global().threshold_ns() /
                             1000000) +
              "\n";
          last->report += std::string("  provenance ") +
                          (engine_.rules.provenance_enabled() ? "on" : "off") +
                          "\n";
          last->report +=
              std::string("  wave_capture ") +
              (engine_.rules.wave_capture_enabled() ? "on" : "off") + "\n";
          return Status::OK();
        } else if constexpr (std::is_same_v<T, SetSlowMsStmt>) {
          // Works in OBS=OFF builds too: the slow log is server plumbing,
          // not a metrics-layer twin.
          obs::SlowLog::Global().set_threshold_ns(
              static_cast<uint64_t>(node.slow_ms) * 1000000ull);
          last->report += "SLOW_MS " + std::to_string(node.slow_ms) + "\n";
          return Status::OK();
        } else if constexpr (std::is_same_v<T, SetProvenanceStmt>) {
          if (!DELTAMON_OBS_ENABLED) return ObsDisabled("set provenance");
          // Exclusive: flips what concurrent commit waves capture.
          std::unique_lock lock(gate());
          engine_.rules.SetProvenanceEnabled(node.on);
          last->report +=
              std::string("PROVENANCE ") + (node.on ? "on" : "off") + "\n";
          return Status::OK();
        } else if constexpr (std::is_same_v<T, SetWaveCaptureStmt>) {
          if (!DELTAMON_OBS_ENABLED) return ObsDisabled("set wave_capture");
          std::unique_lock lock(gate());
          engine_.rules.SetWaveCaptureEnabled(node.on);
          last->report +=
              std::string("WAVE_CAPTURE ") + (node.on ? "on" : "off") + "\n";
          return Status::OK();
        } else if constexpr (std::is_same_v<T, DumpWavesStmt>) {
          return ExecDumpWaves(node, last);
        } else if constexpr (std::is_same_v<T, ExplainFiringStmt>) {
          return ExecExplainFiring(node, last);
        } else if constexpr (std::is_same_v<T, ShowProvenanceStmt>) {
          return ExecShowProvenance(last);
        } else {
          static_assert(std::is_same_v<T, RollbackStmt>);
          return ExecRollback();
        }
      },
      stmt.node);
}

void Session::RefreshSnapshotLocked() {
  if (!txn_started_) {
    engine_.txn.Begin(txn_);
    txn_started_ = true;
    return;
  }
  // Autocommit refresh: outside an explicit transaction, a statement that
  // follows only reads re-snapshots at the current version (dropping the
  // previous statements' footprints — each read-only statement validates
  // on its own). Once anything is buffered, the snapshot is pinned until
  // commit or abort.
  if (!txn_.explicit_begin() && !txn_.HasWrites() && !ddl_dirty_) {
    engine_.txn.Begin(txn_);
  }
}

StateContext Session::EvalContext() {
  StateContext ctx;
  ctx.txn = &txn_;
  return ctx;
}

Status Session::ExecBegin() {
  std::shared_lock lock(gate());
  if (txn_.HasWrites()) {
    return Status::FailedPrecondition(
        "begin: transaction has buffered changes; commit or abort first");
  }
  engine_.txn.Begin(txn_);
  txn_started_ = true;
  txn_.set_explicit_begin(true);
  return Status::OK();
}

Status Session::ExecCommit() {
  if (!txn_.HasWrites() && !ddl_dirty_) {
    // Read-only commit: nothing to validate or propagate. Restart the
    // snapshot at the current version without a queue round trip.
    std::shared_lock lock(gate());
    engine_.txn.Begin(txn_);
    txn_started_ = true;
    return Status::OK();
  }
  // Group commit; a non-null profiler (explain analyze / slow capture)
  // forces a batch-of-one so the profile describes only this transaction.
  Status s = engine_.txn.Commit(txn_, active_profiler_);
  txn_started_ = true;  // the manager re-registered the snapshot
  if (s.code() != StatusCode::kTxnConflict) {
    // Direct DDL writes either committed with the wave or (on a check
    // failure) were rolled back with it; on a conflict the wave may not
    // have run at all, so keep the flag and flush on the next commit.
    ddl_dirty_ = false;
  }
  return s;
}

Status Session::ExecRollback() {
  // Abort: discard the buffered overlay and read footprint and restart at
  // the current version. DDL is not transactional: catalog changes stay,
  // and `create instances` extent rows stay applied (they ride the next
  // commit wave).
  std::shared_lock lock(gate());
  engine_.txn.Begin(txn_);
  txn_started_ = true;
  return Status::OK();
}

Status Session::ExecProfile(const ProfileStmt& stmt, QueryResult* last) {
  obs::Registry& registry = obs::Registry::Global();
  obs::MetricsSnapshot before = registry.Snapshot();
  auto start = std::chrono::steady_clock::now();
  Status status = ExecStatement(*stmt.inner, last);
  auto elapsed = std::chrono::steady_clock::now() - start;
  DELTAMON_RETURN_IF_ERROR(status);

  double ms = std::chrono::duration<double, std::milli>(elapsed).count();
  char header[64];
  std::snprintf(header, sizeof(header), "PROFILE %.3f ms\n", ms);
  last->report += header;
  obs::MetricsSnapshot diff = registry.Snapshot().DiffSince(before);
  last->report += obs::FormatSnapshot(diff);

  // If the statement ran a propagation wave (commit, or any update under
  // immediate rule processing), show which partial differentials executed
  // — the paper's §8 "which influents caused the rule to trigger" answer.
  // Under concurrency the trace belongs to the rule manager's most recent
  // wave, which may include (or be) another session's work — read it under
  // the shared gate so it is at least a consistent wave.
  std::shared_lock lock(gate());
  const std::vector<core::TraceEntry>& trace = engine_.rules.last_trace();
  if (!trace.empty() && diff.counters.contains("propagator.waves")) {
    last->report += "differentials:\n";
    for (const core::TraceEntry& e : trace) {
      last->report += "  " + e.ToString(engine_.db.catalog()) + "\n";
    }
  }
  return Status::OK();
}

void Session::RecordObservedStats(const obs::Profile& profile) {
  StatsStore& stats = engine_.db.catalog().stats();
  for (const auto& [label, cp] : profile.clauses()) {
    for (const obs::LiteralProfile& slot : cp.slots) {
      // Only extent accesses carry a (relation, role, nbound) key the
      // ordering optimizer can look up; filters and binders don't. The
      // batch kernels relabel extent accesses with their join strategy
      // but keep the same key and counter semantics.
      if (slot.access != "scan" && slot.access.rfind("probe", 0) != 0 &&
          slot.access.rfind("hash-join", 0) != 0 &&
          slot.access != "semijoin-filtered") {
        continue;
      }
      stats.Record(slot.relation, slot.role, slot.nbound,
                   slot.bindings_tried, slot.rows_out);
    }
  }
}

Status Session::ExecExplainAnalyze(const ExplainAnalyzeStmt& stmt,
                                   QueryResult* last) {
  // Attach one profile to everything the wrapped statement evaluates:
  // session-level evaluators pick it up through active_profiler_, and the
  // rule manager threads it through the propagator (per-worker profiles,
  // serial merge) so output is bit-identical at any thread count.
  obs::Profile profile;
  obs::Profile* const saved = active_profiler_;
  active_profiler_ = &profile;
  Status status = ExecStatement(*stmt.inner, last);
  active_profiler_ = saved;
  DELTAMON_RETURN_IF_ERROR(status);

  // Feed observed selectivities back so the next ordering decision (and
  // the estimates of the next explain analyze) can use them. The stats
  // store hangs off the shared catalog — exclusive gate.
  {
    std::unique_lock lock(gate());
    RecordObservedStats(profile);
  }

  last->report += "EXPLAIN ANALYZE\n";
  last->report += profile.Format(/*include_time=*/true);
  if (!stmt.path.empty()) {
    DELTAMON_RETURN_IF_ERROR(
        obs::WriteTextFile(stmt.path, profile.ToJson().Dump()));
    last->report += "PROFILE JSON " + stmt.path + "\n";
  }
  return Status::OK();
}

Status Session::ExecAnalyzeRule(const AnalyzeRuleStmt& stmt,
                                QueryResult* last) {
  DELTAMON_ASSIGN_OR_RETURN(rules::RuleId rule,
                            engine_.rules.FindRule(stmt.rule));
  DELTAMON_ASSIGN_OR_RETURN(std::vector<RelationId> conditions,
                            engine_.rules.MonitoredConditions(rule));
  // Full (re)evaluation of the rule's condition relation(s) under the
  // profiler: the point is the per-literal cardinality census, not the
  // result, so the rows are discarded and only the stats are kept.
  obs::Profile profile;
  Evaluator evaluator(engine_.db, engine_.registry, StateContext{});
  evaluator.SetProfiler(&profile);
  for (RelationId cond : conditions) {
    TupleSet rows;
    DELTAMON_RETURN_IF_ERROR(evaluator.Evaluate(cond, EvalState::kNew, &rows));
  }
  RecordObservedStats(profile);
  last->report += "ANALYZE RULE " + stmt.rule + "\n";
  last->report += profile.Format(/*include_time=*/true);
  return Status::OK();
}

Status Session::ExecTrace(const TraceStmt& stmt, QueryResult* last) {
  // Record into a private ring carried by this request's trace scope: the
  // statement's spans land there — from pool workers and from whichever
  // thread leads its (solo) commit wave too — while a surrounding sink
  // (another trace, a test's sink) is shadowed and no other request's
  // spans can reach the ring.
  obs::RingTraceSink ring(/*capacity=*/65536);
  Status status;
  {
    obs::ScopedTrace scope({obs::CurrentTraceId(), &ring});
    status = ExecStatement(*stmt.inner, last);
  }
  DELTAMON_RETURN_IF_ERROR(status);

  const std::string path =
      stmt.path.empty() ? std::string("deltamon_trace.json") : stmt.path;
  DELTAMON_RETURN_IF_ERROR(obs::WriteChromeTrace(ring.events(), path));
  last->report += "TRACE " + path + "\n";
  if (ring.dropped_events() > 0) {
    last->report += "(ring overflow: " +
                    std::to_string(ring.dropped_events()) +
                    " events dropped)\n";
  }
  last->report += obs::FormatSpanTree(ring.events());
  return Status::OK();
}

Status Session::ExecShowNetwork(const ShowNetworkStmt& stmt,
                                QueryResult* last) {
  DELTAMON_ASSIGN_OR_RETURN(const core::PropagationNetwork* net,
                            engine_.rules.network());
  if (net == nullptr) {
    last->report += "NETWORK (empty: no active rules)\n";
    return Status::OK();
  }
  const Catalog& catalog = engine_.db.catalog();
  std::vector<RelationId> roots;
  if (stmt.rule.empty()) {
    roots.push_back(kInvalidRelationId);  // the whole network
  } else {
    DELTAMON_ASSIGN_OR_RETURN(rules::RuleId rule,
                              engine_.rules.FindRule(stmt.rule));
    DELTAMON_ASSIGN_OR_RETURN(roots, engine_.rules.MonitoredConditions(rule));
  }
  last->report += "NETWORK\n";
  if (stmt.rule.empty()) last->report += net->ToString(catalog);
  for (RelationId root : roots) {
    last->report += net->ToDot(catalog, root);
  }
  // Per-node clause profiles accumulated by profiled waves (`explain
  // analyze ... commit`), in relation-id order so output is stable.
  std::vector<RelationId> profiled;
  for (const auto& [rel, node] : net->nodes()) {
    if (!node.profile.empty()) profiled.push_back(rel);
  }
  std::sort(profiled.begin(), profiled.end());
  for (RelationId rel : profiled) {
    last->report += "profile " + catalog.RelationName(rel) + ":\n";
    last->report += net->nodes().at(rel).profile.Format(/*include_time=*/true);
  }
  return Status::OK();
}

Status Session::ExecShowSlow(QueryResult* last) {
  last->report += obs::SlowLog::Global().Format();
  return Status::OK();
}

Status Session::ExecShowProvenance(QueryResult* last) {
  if (!DELTAMON_OBS_ENABLED) return ObsDisabled("show provenance");
  const auto& log = obs::GlobalProvenanceLog();
  last->report += obs::FormatProvenance(log.Snapshot(), log.enabled(),
                                        log.total_records(),
                                        log.dropped_records());
  return Status::OK();
}

Status Session::ExecExplainFiring(const ExplainFiringStmt& stmt,
                                  QueryResult* last) {
  if (!DELTAMON_OBS_ENABLED) return ObsDisabled("explain firing");
  {
    // A typo'd rule name should error as such, not as "no recorded
    // firing". Shared gate: FindRule only reads the rule table.
    std::shared_lock lock(gate());
    DELTAMON_RETURN_IF_ERROR(engine_.rules.FindRule(stmt.rule).status());
  }
  const auto& log = obs::GlobalProvenanceLog();
  const std::vector<obs::FiringRecord> records = log.Snapshot();
  const obs::FiringRecord* hit = nullptr;
  int64_t remaining = stmt.nth;
  for (auto it = records.rbegin(); it != records.rend(); ++it) {
    if (it->rule != stmt.rule) continue;
    if (--remaining == 0) {
      hit = &*it;
      break;
    }
  }
  if (hit == nullptr) {
    std::string msg = "no recorded firing of rule '" + stmt.rule + "'";
    if (stmt.nth > 1) msg += " at depth " + std::to_string(stmt.nth);
    if (!log.enabled()) {
      msg += " (provenance is off; `set provenance on;` first)";
    }
    return Status::NotFound(std::move(msg));
  }

  last->report += "EXPLAIN FIRING " + hit->rule + " [" +
                  std::to_string(hit->seq) + "]\n";
  char line[128];
  std::snprintf(line, sizeof(line),
                "  trace %016llx  version %llu  round %llu\n",
                static_cast<unsigned long long>(hit->trace_id),
                static_cast<unsigned long long>(hit->version),
                static_cast<unsigned long long>(hit->round));
  last->report += line;
  last->report += "  instances " + std::to_string(hit->total_instances);
  if (hit->captured_instances < hit->total_instances) {
    last->report += " (lineage captured for first " +
                    std::to_string(hit->captured_instances) + ")";
  }
  last->report += "\n";
  for (size_t i = 0; i < hit->lineage.size(); ++i) {
    last->report += "  instance " + hit->instances[i] + ":\n";
    RenderLineageNode(hit->lineage.at(i), /*indent=*/2, &last->report);
  }
  if (!stmt.path.empty()) {
    DELTAMON_RETURN_IF_ERROR(
        obs::WriteTextFile(stmt.path, hit->ToJson().Dump()));
    last->report += "FIRING JSON " + stmt.path + "\n";
  }
  return Status::OK();
}

Status Session::ExecDumpWaves(const DumpWavesStmt& stmt, QueryResult* last) {
  if (!DELTAMON_OBS_ENABLED) return ObsDisabled("dump waves");
  const auto& recorder = obs::GlobalWaveRecorder();
  const std::vector<obs::WaveRecord> waves = recorder.Snapshot();
  const obs::Json doc = obs::WaveFileJson(
      waves, recorder.enabled(), recorder.capacity(),
      recorder.total_records(), recorder.dropped_records());
  DELTAMON_RETURN_IF_ERROR(obs::WriteTextFile(stmt.path, doc.Dump()));
  last->report += "WAVES " + stmt.path + " (" +
                  std::to_string(waves.size()) + " waves)\n";
  return Status::OK();
}

Status Session::ExecCreateFunction(const CreateFunctionStmt& stmt) {
  Catalog& catalog = engine_.db.catalog();
  FunctionSignature sig;
  for (const ParamDecl& p : stmt.params) {
    DELTAMON_ASSIGN_OR_RETURN(ColumnType type,
                              ResolveTypeName(catalog, p.type_name, p.line));
    sig.argument_types.push_back(type);
  }
  for (const std::string& r : stmt.result_types) {
    DELTAMON_ASSIGN_OR_RETURN(ColumnType type,
                              ResolveTypeName(catalog, r, 0));
    sig.result_types.push_back(type);
  }
  if (stmt.aggregate.has_value()) {
    const AggregateBody& agg = *stmt.aggregate;
    // Group columns are the function's parameters: `sum trades(d)` groups
    // the trades relation by its argument columns and aggregates its
    // (single) result column.
    if (agg.args.size() != stmt.params.size()) {
      return Status::InvalidArgument(
          "aggregate over '" + agg.source + "' must be applied to the " +
          "function parameters, at line " + std::to_string(agg.line));
    }
    for (size_t i = 0; i < agg.args.size(); ++i) {
      if (agg.args[i] != stmt.params[i].var_name) {
        return Status::InvalidArgument(
            "aggregate argument '" + agg.args[i] +
            "' must be parameter '" + stmt.params[i].var_name +
            "', at line " + std::to_string(agg.line));
      }
    }
    DELTAMON_ASSIGN_OR_RETURN(RelationId source,
                              catalog.FindRelation(agg.source));
    const FunctionSignature* src_sig = catalog.GetSignature(source);
    if (src_sig->argument_types.size() != agg.args.size()) {
      return Status::InvalidArgument(
          "'" + agg.source + "' takes " +
          std::to_string(src_sig->argument_types.size()) +
          " arguments, aggregate groups by " +
          std::to_string(agg.args.size()));
    }
    objectlog::AggregateDef def;
    def.source = source;
    for (size_t i = 0; i < agg.args.size(); ++i) def.group_by.push_back(i);
    def.value_column = src_sig->argument_types.size();
    if (agg.func == "count") {
      def.func = objectlog::AggregateDef::Func::kCount;
      def.value_column = 0;
    } else if (agg.func == "sum") {
      def.func = objectlog::AggregateDef::Func::kSum;
    } else if (agg.func == "min") {
      def.func = objectlog::AggregateDef::Func::kMin;
    } else {
      def.func = objectlog::AggregateDef::Func::kMax;
    }
    if (def.func != objectlog::AggregateDef::Func::kCount &&
        src_sig->result_types.size() != 1) {
      return Status::InvalidArgument(
          "'" + agg.source + "' must have exactly one result column to be "
          "aggregated, at line " + std::to_string(agg.line));
    }
    DELTAMON_ASSIGN_OR_RETURN(
        RelationId rel, catalog.CreateDerivedFunction(stmt.name,
                                                      std::move(sig)));
    return engine_.registry.DefineAggregate(rel, std::move(def), catalog);
  }
  if (!stmt.body.has_value()) {
    return catalog.CreateStoredFunction(stmt.name, std::move(sig)).status();
  }
  // Derived function: head = params ++ select results.
  DELTAMON_ASSIGN_OR_RETURN(
      RelationId rel, catalog.CreateDerivedFunction(stmt.name,
                                                    std::move(sig)));
  if (stmt.body->results.size() != stmt.result_types.size()) {
    return Status::InvalidArgument(
        "derived function '" + stmt.name + "' declares " +
        std::to_string(stmt.result_types.size()) + " results but selects " +
        std::to_string(stmt.body->results.size()));
  }
  Compiler compiler(engine_, env_, *this);
  DELTAMON_ASSIGN_OR_RETURN(
      CompiledQuery query,
      compiler.CompileQuery(rel, stmt.params, stmt.body->for_each,
                            /*include_for_each_in_head=*/false,
                            stmt.body->results, stmt.body->where.get()));
  for (Clause& clause : query.clauses) {
    DELTAMON_RETURN_IF_ERROR(
        engine_.registry.Define(rel, std::move(clause), catalog));
  }
  return Status::OK();
}

Status Session::ExecCreateRule(const CreateRuleStmt& stmt) {
  Catalog& catalog = engine_.db.catalog();
  // Condition function cnd_<rule>(params) -> (for-each vars), as the rule
  // compiler of paper §3.2.
  FunctionSignature sig;
  for (const ParamDecl& p : stmt.params) {
    DELTAMON_ASSIGN_OR_RETURN(ColumnType type,
                              ResolveTypeName(catalog, p.type_name, p.line));
    sig.argument_types.push_back(type);
  }
  for (const VarDecl& d : stmt.for_each) {
    DELTAMON_ASSIGN_OR_RETURN(ColumnType type,
                              ResolveTypeName(catalog, d.type_name, d.line));
    sig.result_types.push_back(type);
  }
  DELTAMON_ASSIGN_OR_RETURN(
      RelationId cond, catalog.CreateDerivedFunction("cnd_" + stmt.name,
                                                     std::move(sig)));
  Compiler compiler(engine_, env_, *this);
  DELTAMON_ASSIGN_OR_RETURN(
      CompiledQuery query,
      compiler.CompileQuery(cond, stmt.params, stmt.for_each,
                            /*include_for_each_in_head=*/true,
                            /*results=*/{}, stmt.condition.get()));
  for (Clause& clause : query.clauses) {
    DELTAMON_RETURN_IF_ERROR(
        engine_.registry.Define(cond, std::move(clause), catalog));
  }

  // Action: compile the argument expressions against the same variable
  // layout; instances and activation parameters are bound at fire time.
  const size_t num_params = stmt.params.size();
  const size_t num_instance_vars = stmt.for_each.size();
  const int num_named = static_cast<int>(num_params + num_instance_vars);

  std::vector<const Expr*> exprs;
  RelationId set_relation = kInvalidRelationId;
  size_t set_num_args = 0;
  std::string proc_name;
  if (stmt.action.kind == RuleActionStmt::Kind::kProcedureCall) {
    proc_name = stmt.action.call->name;
    for (const ExprPtr& a : stmt.action.call->args) exprs.push_back(a.get());
  } else {
    const Expr& target = *stmt.action.set_target;
    DELTAMON_ASSIGN_OR_RETURN(set_relation,
                              catalog.FindRelation(target.name));
    if (catalog.GetBaseRelation(set_relation) == nullptr) {
      return Status::InvalidArgument("set action target '" + target.name +
                                     "' is not a stored function");
    }
    set_num_args = target.args.size();
    for (const ExprPtr& a : target.args) exprs.push_back(a.get());
    exprs.push_back(stmt.action.set_value.get());
  }
  DELTAMON_ASSIGN_OR_RETURN(
      Clause action_clause,
      compiler.CompileScalarExprs(exprs, query.named_vars, num_named));
  action_clause.profile_label = "action:" + stmt.name;

  auto shared_clause = std::make_shared<Clause>(std::move(action_clause));
  Session* session = this;
  rules::RuleAction action =
      [session, shared_clause, num_params, num_instance_vars, set_relation,
       set_num_args, proc_name,
       kind = stmt.action.kind](Database& db, const Tuple& params,
                                const std::vector<Tuple>& instances)
      -> Status {
    // Actions run inside the deferred check phase, possibly on the commit
    // leader's thread on behalf of a whole wave — the profiler (if any) is
    // whichever one the rule manager has armed for this wave, not this
    // session's.
    Evaluator evaluator(db, session->engine_.registry, StateContext{});
    evaluator.SetProfiler(session->engine_.rules.profiler());
    for (const Tuple& instance : instances) {
      std::vector<std::pair<int, Value>> bindings;
      for (size_t i = 0; i < num_params; ++i) {
        bindings.emplace_back(static_cast<int>(i), params[i]);
      }
      for (size_t j = 0; j < num_instance_vars; ++j) {
        bindings.emplace_back(static_cast<int>(num_params + j), instance[j]);
      }
      TupleSet values;
      DELTAMON_RETURN_IF_ERROR(evaluator.EvaluateClauseWithBindings(
          *shared_clause, bindings, &values));
      if (values.empty()) {
        return Status::FailedPrecondition(
            "rule action expression is undefined for instance " +
            instance.ToString());
      }
      for (const Tuple& row : SortedTuples(values)) {
        if (kind == RuleActionStmt::Kind::kSet) {
          std::vector<Value> args(row.values().begin(),
                                  row.values().begin() +
                                      static_cast<long>(set_num_args));
          std::vector<Value> results(row.values().begin() +
                                         static_cast<long>(set_num_args),
                                     row.values().end());
          DELTAMON_RETURN_IF_ERROR(db.Set(set_relation,
                                          Tuple(std::move(args)),
                                          Tuple(std::move(results))));
        } else {
          auto proc = session->procedures_.find(proc_name);
          if (proc == session->procedures_.end()) {
            return Status::NotFound("procedure '" + proc_name +
                                    "' is not registered");
          }
          DELTAMON_RETURN_IF_ERROR(proc->second(db, row.values()));
        }
      }
    }
    return Status::OK();
  };

  rules::RuleOptions options;
  options.semantics = stmt.nervous ? rules::Semantics::kNervous
                                   : rules::Semantics::kStrict;
  options.num_params = num_params;
  DELTAMON_RETURN_IF_ERROR(
      engine_.rules.CreateRule(stmt.name, cond, std::move(action), options)
          .status());
  created_rules_ = true;
  return Status::OK();
}

Status Session::ExecCreateInstances(const CreateInstancesStmt& stmt) {
  Catalog& catalog = engine_.db.catalog();
  DELTAMON_ASSIGN_OR_RETURN(TypeId type, catalog.FindType(stmt.type_name));
  DELTAMON_ASSIGN_OR_RETURN(RelationId extent, ExtentRelation(type));
  for (const std::string& name : stmt.interface_vars) {
    DELTAMON_ASSIGN_OR_RETURN(Oid oid, catalog.CreateObject(type));
    env_[name] = Value(oid);
    // DDL writes directly (under the exclusive gate), not through the
    // overlay: extent tuples must be visible to the statements that follow
    // in this same batch of source, in every session. The logged events
    // ride the next commit wave.
    DELTAMON_RETURN_IF_ERROR(engine_.db.Insert(extent, Tuple{Value(oid)}));
  }
  ddl_dirty_ = true;
  return Status::OK();
}

Result<Value> Session::EvalGroundExpr(const Expr& expr) {
  if (expr.kind == Expr::Kind::kLiteral) return expr.literal;
  if (expr.kind == Expr::Kind::kInterfaceVar) {
    return GetInterfaceVar(expr.name);
  }
  if (expr.kind == Expr::Kind::kVariable) {
    return Status::InvalidArgument("query variable '" + expr.name +
                                   "' is not allowed here (line " +
                                   std::to_string(expr.line) + ")");
  }
  Compiler compiler(engine_, env_, *this);
  DELTAMON_ASSIGN_OR_RETURN(Clause clause,
                            compiler.CompileScalarExprs({&expr}, {}, 0));
  clause.profile_label = "expr@" + std::to_string(expr.line);
  Evaluator evaluator(engine_.db, engine_.registry, EvalContext());
  evaluator.SetProfiler(active_profiler_);
  TupleSet out;
  DELTAMON_RETURN_IF_ERROR(evaluator.EvaluateClause(clause, &out));
  if (out.empty()) {
    return Status::NotFound("expression at line " + std::to_string(expr.line) +
                            " has no value");
  }
  if (out.size() > 1) {
    return Status::FailedPrecondition("expression at line " +
                                      std::to_string(expr.line) +
                                      " is multi-valued; expected one value");
  }
  return (*out.begin())[0];
}

Result<std::vector<Value>> Session::EvalGroundExprs(
    const std::vector<ExprPtr>& es) {
  std::vector<Value> out;
  out.reserve(es.size());
  for (const ExprPtr& e : es) {
    DELTAMON_ASSIGN_OR_RETURN(Value v, EvalGroundExpr(*e));
    out.push_back(std::move(v));
  }
  return out;
}

Status Session::ExecUpdate(const UpdateStmt& stmt) {
  Catalog& catalog = engine_.db.catalog();
  const Expr& target = *stmt.target;
  DELTAMON_ASSIGN_OR_RETURN(RelationId rel, catalog.FindRelation(target.name));
  if (catalog.GetBaseRelation(rel) == nullptr) {
    return Status::InvalidArgument("'" + target.name +
                                   "' is not a stored function");
  }
  const FunctionSignature* sig = catalog.GetSignature(rel);
  if (target.args.size() != sig->argument_types.size()) {
    return Status::InvalidArgument(
        "'" + target.name + "' expects " +
        std::to_string(sig->argument_types.size()) + " arguments");
  }
  DELTAMON_ASSIGN_OR_RETURN(std::vector<Value> args,
                            EvalGroundExprs(target.args));
  DELTAMON_ASSIGN_OR_RETURN(Value value, EvalGroundExpr(*stmt.value));
  Tuple arg_tuple{std::move(args)};
  // DML folds into the session's private overlay (view-aware, footprint-
  // recorded) and reaches the shared store only when a commit wave
  // applies it.
  switch (stmt.kind) {
    case UpdateStmt::Kind::kSet:
      return txn_.BufferSet(catalog, rel, arg_tuple, Tuple{std::move(value)});
    case UpdateStmt::Kind::kAdd:
      return txn_.BufferInsert(catalog, rel,
                               arg_tuple.Concat(Tuple{std::move(value)}));
    case UpdateStmt::Kind::kRemove:
      return txn_.BufferDelete(catalog, rel,
                               arg_tuple.Concat(Tuple{std::move(value)}));
  }
  return Status::Internal("unknown update kind");
}

Status Session::ExecActivate(const ActivateStmt& stmt) {
  DELTAMON_ASSIGN_OR_RETURN(rules::RuleId rule,
                            engine_.rules.FindRule(stmt.rule_name));
  DELTAMON_ASSIGN_OR_RETURN(std::vector<Value> args,
                            EvalGroundExprs(stmt.args));
  Tuple params{std::move(args)};
  return stmt.deactivate ? engine_.rules.Deactivate(rule, params)
                         : engine_.rules.Activate(rule, params);
}

Status Session::ExecSelect(const SelectStmt& stmt, QueryResult* out) {
  Compiler compiler(engine_, env_, *this);
  DELTAMON_ASSIGN_OR_RETURN(
      CompiledQuery query,
      compiler.CompileQuery(kInvalidRelationId, /*params=*/{},
                            stmt.query.for_each,
                            /*include_for_each_in_head=*/false,
                            stmt.query.results, stmt.query.where.get()));
  Evaluator evaluator(engine_.db, engine_.registry, EvalContext());
  evaluator.SetProfiler(active_profiler_);
  TupleSet rows;
  for (size_t i = 0; i < query.clauses.size(); ++i) {
    Clause& clause = query.clauses[i];
    // Ad-hoc clauses have no registry-assigned profile label; number them
    // so `explain analyze` keeps disjunctive branches apart.
    clause.profile_label = "select#" + std::to_string(i);
    DELTAMON_RETURN_IF_ERROR(evaluator.EvaluateClause(clause, &rows));
  }
  out->rows = SortedTuples(rows);
  return Status::OK();
}

}  // namespace deltamon::amosql
