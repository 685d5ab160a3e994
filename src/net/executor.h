#ifndef DELTAMON_NET_EXECUTOR_H_
#define DELTAMON_NET_EXECUTOR_H_

#include <string>

#include "amosql/session.h"
#include "obs/flight_recorder.h"
#include "rules/engine.h"

namespace deltamon::net {

/// Statement-execution entry point for the server. Every connection's
/// session is transactional, so statements run concurrently here: they
/// synchronize at the engine gate — shared for reads and buffered DML,
/// exclusive for DDL — and at the group-commit queue, which batches the
/// Δ-sets of ready transactions into one deferred check phase. Tracing
/// state is request-scoped (obs::TraceScope), so the executor itself
/// holds no lock, with or without the slow-statement log armed.
///
/// Records net.statements_served / net.statement_errors counters and the
/// net.statement_latency_ns histogram. With a request record, latency runs
/// from the record's enqueue stamp — the read that completed the frame —
/// so queue wait behind pipelined statements is included, as a client
/// observes it; without one it starts at executor entry.
class Executor {
 public:
  explicit Executor(Engine& engine) : engine_(engine) {}
  Executor(const Executor&) = delete;
  Executor& operator=(const Executor&) = delete;

  Engine& engine() { return engine_; }

  /// Executes one statement batch. When `record` is non-null the executor
  /// stamps its dequeue (executor entry) and exec-end phases (feeding
  /// net.queue_wait_ns and net.exec_ns), installs the record's trace id as
  /// this thread's trace scope for span attribution, and — when the global
  /// SlowLog threshold is armed — captures the full span tree + literal
  /// profile of over-threshold statements in a ring private to the
  /// request. Callers without a request identity (bootstrap, tests) pass
  /// nullptr and get plain execution.
  Result<amosql::QueryResult> Execute(amosql::Session& session,
                                      const std::string& source,
                                      obs::RequestRecord* record = nullptr);

  /// Stats-annotated Graphviz DOT of the propagation network — the same
  /// rendering `show network [rule]` produces — for the admin HTTP
  /// /debug/network endpoint. Takes the engine gate exclusively: statements
  /// rebuild the network lazily under the gate. `rule` empty = the whole
  /// network.
  Result<std::string> NetworkDot(const std::string& rule);

 private:
  Engine& engine_;
};

}  // namespace deltamon::net

#endif  // DELTAMON_NET_EXECUTOR_H_
