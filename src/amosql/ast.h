#ifndef DELTAMON_AMOSQL_AST_H_
#define DELTAMON_AMOSQL_AST_H_

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/value.h"
#include "objectlog/ast.h"

namespace deltamon::amosql {

/// --- Expressions ----------------------------------------------------------

struct Expr;
using ExprPtr = std::unique_ptr<Expr>;

/// An AMOSQL expression: literal, variable reference, interface variable,
/// function call, or arithmetic.
struct Expr {
  enum class Kind {
    kLiteral,       // 5000, 2.5, "abc"
    kVariable,      // i, s (query variable)
    kInterfaceVar,  // :item1 (session environment)
    kCall,          // quantity(i)
    kArith,         // a * b
  };

  Kind kind = Kind::kLiteral;
  Value literal;                       // kLiteral
  std::string name;                    // kVariable / kInterfaceVar / kCall
  std::vector<ExprPtr> args;           // kCall
  objectlog::ArithOp op = objectlog::ArithOp::kAdd;  // kArith
  ExprPtr lhs, rhs;                    // kArith
  int line = 1;

  static ExprPtr Literal(Value v, int line);
  static ExprPtr Variable(std::string name, int line);
  static ExprPtr Interface(std::string name, int line);
  static ExprPtr Call(std::string name, std::vector<ExprPtr> args, int line);
  static ExprPtr Arith(objectlog::ArithOp op, ExprPtr lhs, ExprPtr rhs,
                       int line);
};

/// --- Predicates -------------------------------------------------------------

struct Predicate;
using PredicatePtr = std::unique_ptr<Predicate>;

/// A boolean condition tree: comparisons over expressions combined with
/// and / or / not. A bare function call used as a predicate (boolean
/// function) is represented as kAtom.
struct Predicate {
  enum class Kind { kCompare, kAnd, kOr, kNot, kAtom };

  Kind kind = Kind::kCompare;
  objectlog::CompareOp cmp = objectlog::CompareOp::kEq;  // kCompare
  ExprPtr lhs, rhs;                                      // kCompare
  PredicatePtr left, right;                              // kAnd / kOr
  PredicatePtr child;                                    // kNot
  ExprPtr atom;                                          // kAtom (a kCall)
  int line = 1;

  static PredicatePtr Compare(objectlog::CompareOp op, ExprPtr lhs,
                              ExprPtr rhs, int line);
  static PredicatePtr And(PredicatePtr l, PredicatePtr r, int line);
  static PredicatePtr Or(PredicatePtr l, PredicatePtr r, int line);
  static PredicatePtr Not(PredicatePtr c, int line);
  static PredicatePtr Atom(ExprPtr call, int line);
};

/// --- Queries ----------------------------------------------------------------

/// `TYPE NAME` declaration in a for-each clause.
struct VarDecl {
  std::string type_name;
  std::string var_name;
  int line = 1;
};

/// `select <exprs> for each <decls> where <pred>`; both the for-each list
/// and the where clause are optional.
struct SelectQuery {
  std::vector<ExprPtr> results;
  std::vector<VarDecl> for_each;
  PredicatePtr where;  // may be null
  int line = 1;
};

/// --- Statements -------------------------------------------------------------

struct CreateTypeStmt {
  std::string name;
};

/// Parameter of a function or rule: type name plus optional variable name.
struct ParamDecl {
  std::string type_name;
  std::string var_name;  // may be empty for stored-function signatures
  int line = 1;
};

/// `as count|sum|min|max source(param, ...)`: an aggregate view grouped by
/// the function's parameters (§8 extension).
struct AggregateBody {
  std::string func;    // "count" | "sum" | "min" | "max"
  std::string source;  // the aggregated function
  std::vector<std::string> args;  // must be the parameter names, in order
  int line = 1;
};

struct CreateFunctionStmt {
  std::string name;
  std::vector<ParamDecl> params;
  std::vector<std::string> result_types;
  /// Engaged for derived functions ("as select ...").
  std::optional<SelectQuery> body;
  /// Engaged for aggregate views ("as sum f(x)").
  std::optional<AggregateBody> aggregate;
};

/// Rule action: a procedure call `order(i, ...)` or an update
/// `set f(args) = expr`.
struct RuleActionStmt {
  enum class Kind { kProcedureCall, kSet };
  Kind kind = Kind::kProcedureCall;
  ExprPtr call;           // kProcedureCall: a kCall expr
  ExprPtr set_target;     // kSet: a kCall expr (function being set)
  ExprPtr set_value;      // kSet
  int line = 1;
};

struct CreateRuleStmt {
  std::string name;
  std::vector<ParamDecl> params;
  /// Either a for-each clause with declared variables + predicate, or just
  /// a predicate over the rule parameters.
  std::vector<VarDecl> for_each;
  PredicatePtr condition;
  RuleActionStmt action;
  /// `as strict` / `as nervous` modifier (extension; default strict).
  bool nervous = false;
};

struct CreateInstancesStmt {
  std::string type_name;
  std::vector<std::string> interface_vars;  // names without ':'
};

/// set / add / remove f(args) = value.
struct UpdateStmt {
  enum class Kind { kSet, kAdd, kRemove };
  Kind kind = Kind::kSet;
  ExprPtr target;  // kCall expr
  ExprPtr value;
  int line = 1;
};

struct ActivateStmt {
  std::string rule_name;
  std::vector<ExprPtr> args;
  bool deactivate = false;
};

struct SelectStmt {
  SelectQuery query;
};

/// `begin;` — starts an explicit transaction: the session stops refreshing
/// its snapshot per statement and accumulates reads and buffered writes
/// until `commit;` or `abort;`. A no-op without an attached transaction
/// manager (the embedded single-session mode is always in a transaction).
struct BeginStmt {};
struct CommitStmt {};
/// `rollback;` / `abort;` — discards the transaction's buffered writes
/// (abort is the retry-friendly spelling used by network clients).
struct RollbackStmt {};

struct Statement;

/// `profile <statement>` — executes the wrapped statement and reports the
/// wall time, the delta of every obs metric it moved, and (for statements
/// that ran a check phase) the executed partial differentials.
struct ProfileStmt {
  std::unique_ptr<Statement> inner;
};

/// `show metrics [prometheus]` — dumps the global obs registry, either in
/// the native human format or in Prometheus text exposition format.
struct ShowMetricsStmt {
  bool prometheus = false;
};

/// `explain analyze ["file.json"] <statement>` — executes the wrapped
/// statement with the per-literal profiler attached, prints each clause's
/// estimated vs actual rows / selectivity / probe-vs-scan / time table,
/// records the observed selectivities into the catalog's StatsStore (so the
/// literal-ordering optimizer learns from them), and optionally writes the
/// same profile as a JSON artifact.
struct ExplainAnalyzeStmt {
  std::unique_ptr<Statement> inner;
  std::string path;  // empty → no JSON artifact
};

/// `analyze rule <name>` — evaluates the rule's monitored condition
/// relation(s) under the profiler, feeds the observed selectivities into
/// the StatsStore, and prints the per-literal table.
struct AnalyzeRuleStmt {
  std::string rule;
};

/// `trace ["file.json"] <statement>` — executes the wrapped statement with
/// a trace sink installed, writes the recorded spans as a Chrome/Perfetto
/// trace_event file, and prints the span tree.
struct TraceStmt {
  std::unique_ptr<Statement> inner;
  std::string path;  // empty → "deltamon_trace.json"
};

/// `show network [rule]` — prints the propagation network topology with
/// per-node attribution stats and its Graphviz dot rendering, optionally
/// restricted to the subgraph feeding one rule's condition.
struct ShowNetworkStmt {
  std::string rule;  // empty → the whole network
};

/// `show slow;` — prints the server's slow-statement log (statements over
/// the --slow-statement-ms threshold, with their span trees and literal
/// profiles). Empty unless a threshold is armed.
struct ShowSlowStmt {};

/// `reset metrics` — zeroes every counter/gauge/histogram in the global
/// obs registry and the propagation network's node attribution.
struct ResetMetricsStmt {};

/// `set threads N` — worker threads for propagation waves (level-
/// synchronous parallelism; results identical at any setting). 1 is the
/// serial algorithm, 0 means hardware concurrency.
struct SetThreadsStmt {
  /// Largest accepted N, here and for `deltamon-replay --threads`. Far
  /// above any useful level width; it keeps a client's request below the
  /// point where std::thread fails to start a worker and the throw takes
  /// the server down.
  static constexpr int64_t kMaxThreads = 256;

  int64_t num_threads = 1;
};

/// `set kernels on|off` — routes eligible partial differentials through the
/// batch evaluation kernels (columnar Δ-tables, build–probe hash joins,
/// semi-join pre-filters; docs/kernels.md). On by default; results are
/// identical either way, only the execution strategy (and the per-literal
/// `access` labels in profiles) changes.
struct SetKernelsStmt {
  bool on = true;
};

/// `show settings;` — prints the session-visible execution knobs
/// (threads, kernels) and their current values.
struct ShowSettingsStmt {};

/// `set slow_ms N` — slow-statement log threshold in milliseconds
/// (0 disarms capture), updating the same relaxed-atomic threshold the
/// deltamond --slow-statement-ms flag seeds.
struct SetSlowMsStmt {
  int64_t slow_ms = 0;
};

/// `set provenance on|off` — row-level firing provenance: propagation
/// waves capture delta lineage and every firing records its instances'
/// lineage trees (see `explain firing`). Off by default (lineage capture
/// adds bookkeeping per derivation; docs/observability.md gives the cost
/// model). Errors when observability is compiled out.
struct SetProvenanceStmt {
  bool on = false;
};

/// `set wave_capture on|off` — black-box recorder of check-phase waves
/// (influent Δ-sets, settings, root Δ-sets, firings), dumped with `dump
/// waves` and replayed by deltamon-replay. Errors when observability is
/// compiled out.
struct SetWaveCaptureStmt {
  bool on = false;
};

/// `dump waves "path";` — writes the captured waves as a
/// `deltamon.wave.v1` JSON file for deltamon-replay.
struct DumpWavesStmt {
  std::string path;
};

/// `explain firing <rule> [n];` — prints the lineage trees of the last
/// (or n-th most recent) recorded firing of `rule`: which base-relation
/// Δ-rows each condition instance was derived from, through which partial
/// differentials, stamped with the trace id and commit version.
/// An optional leading string literal (mirroring `trace` / `explain
/// analyze`) additionally writes the firing record as a JSON artifact.
struct ExplainFiringStmt {
  std::string path;  ///< empty → no JSON artifact
  std::string rule;
  int64_t nth = 1;  ///< 1 = most recent recorded firing of the rule
};

/// `show provenance;` — summarizes the firing-provenance ring (one line
/// per recorded firing).
struct ShowProvenanceStmt {};

/// A parsed statement (tagged union via variant).
struct Statement {
  std::variant<CreateTypeStmt, CreateFunctionStmt, CreateRuleStmt,
               CreateInstancesStmt, UpdateStmt, ActivateStmt, SelectStmt,
               BeginStmt, CommitStmt, RollbackStmt, ProfileStmt,
               ShowMetricsStmt,
               TraceStmt, ShowNetworkStmt, ShowSlowStmt, ResetMetricsStmt,
               SetThreadsStmt, SetKernelsStmt, ShowSettingsStmt,
               SetSlowMsStmt, SetProvenanceStmt, SetWaveCaptureStmt,
               DumpWavesStmt, ExplainFiringStmt, ShowProvenanceStmt,
               ExplainAnalyzeStmt, AnalyzeRuleStmt>
      node;
  int line = 1;
};

}  // namespace deltamon::amosql

#endif  // DELTAMON_AMOSQL_AST_H_
