/// Batch (set-at-a-time) clause evaluation: the kernel path behind
/// Evaluator::EnableKernels. A partial differential's whole Δ-set is
/// materialized into a columnar wave-front table (common/column_table.h)
/// and pushed through per-literal kernels — dense compare/arith passes,
/// build–probe hash joins, distinct-key existence probes — instead of the
/// tuple-at-a-time recursive interpreter in eval.cc. Results are identical
/// (the certified outputs are all set- or count-valued; emission order is
/// free), only the execution strategy differs. See docs/kernels.md.
///
/// Planning and execution are split: KernelPlan::Compile decides
/// everything that depends only on the clause, the registry and the
/// StatsStore, once per partial differential; Evaluator::RunKernelPlan
/// then only moves data.

#include <algorithm>
#include <atomic>
#include <cassert>
#include <cmath>
#include <memory>
#include <mutex>
#include <span>
#include <utility>
#include <vector>

#include "common/column_table.h"
#include "objectlog/eval.h"

namespace deltamon::objectlog {

/// A build join's side, and what identifies it in a BuildSideStore: the
/// relation and state scanned, the constants pushed into the scan, the
/// repeated-variable checks each tuple must pass, and the tuple positions
/// copied into the side's join columns and then its new-variable columns.
/// Building reads nothing else, so equal keys within a wave give equal
/// sides.
struct BuildSideKey {
  RelationId relation = kInvalidRelationId;
  EvalState state = EvalState::kNew;
  ScanPattern pattern;  ///< constants only
  std::vector<std::pair<size_t, size_t>> repeat_checks;  ///< (pos, first pos)
  std::vector<size_t> join_pos;
  std::vector<size_t> new_pos;
  /// 0..#join-1: the side's join columns, which its index is keyed on.
  /// Follows from join_pos.
  std::vector<size_t> index_cols;

  bool operator==(const BuildSideKey&) const = default;
};

namespace {

std::atomic<uint64_t> g_plan_compilations{0};

/// Column layout of the wave-front batch between two kernel steps: one
/// column per variable that is bound AND still needed (used by a later
/// literal or the head).
struct Layout {
  std::vector<int> col_of_var;  ///< var -> column index, -1 when absent
  std::vector<int> var_of_col;  ///< column index -> var

  Layout() = default;
  Layout(size_t nvars, const std::vector<bool>& bound,
         const std::vector<bool>& needed)
      : col_of_var(nvars, -1) {
    for (size_t v = 0; v < nvars; ++v) {
      if (bound[v] && needed[v]) {
        col_of_var[v] = static_cast<int>(var_of_col.size());
        var_of_col.push_back(static_cast<int>(v));
      }
    }
  }

  size_t width() const { return var_of_col.size(); }
};

/// A compiled operand: a constant or a batch column.
struct Operand {
  bool is_const = false;
  Value constant;
  int col = -1;
};

Operand CompileOperand(const Term& t, const Layout& layout) {
  Operand o;
  if (t.is_const()) {
    o.is_const = true;
    o.constant = t.constant;
  } else {
    o.col = layout.col_of_var[t.var];
  }
  return o;
}

std::vector<Operand> CompileOperands(const std::vector<Term>& terms,
                                     const Layout& layout) {
  std::vector<Operand> ops;
  ops.reserve(terms.size());
  for (const Term& t : terms) ops.push_back(CompileOperand(t, layout));
  return ops;
}

Value OperandValue(const Operand& o, const ColumnTable& batch, size_t row) {
  return o.is_const ? o.constant : batch.Get(row, o.col);
}

Tuple ProjectRow(const std::vector<Operand>& ops, const ColumnTable& batch,
                 size_t row) {
  std::vector<Value> vals;
  vals.reserve(ops.size());
  for (const Operand& o : ops) vals.push_back(OperandValue(o, batch, row));
  return Tuple(std::move(vals));
}

/// Column transfer from one batch layout to the next: passthrough columns
/// are gathered rep-to-rep; `fresh` lists the destination columns a step
/// must fill with newly bound values.
struct ColumnCopier {
  std::vector<int> src_of_dst;
  std::vector<std::pair<int, int>> fresh;  ///< (dst column, var)

  ColumnCopier() = default;
  ColumnCopier(const Layout& src, const Layout& dst) {
    src_of_dst.resize(dst.width());
    for (size_t c = 0; c < dst.width(); ++c) {
      int v = dst.var_of_col[c];
      src_of_dst[c] = src.col_of_var[v];
      if (src.col_of_var[v] < 0) fresh.emplace_back(static_cast<int>(c), v);
    }
  }

  /// Gathers every passthrough column of `dst` from `src` at rows `sel`.
  void GatherThrough(const ColumnTable& src, std::span<const uint32_t> sel,
                     ColumnTable& dst) const {
    for (size_t c = 0; c < src_of_dst.size(); ++c) {
      if (src_of_dst[c] >= 0) {
        dst.Gather(c, src, static_cast<size_t>(src_of_dst[c]), sel);
      }
    }
  }
};

/// True when `t` passes every repeated-variable cross-check in `checks`.
bool RepeatsMatch(const std::vector<std::pair<size_t, size_t>>& checks,
                  const Tuple& t) {
  for (const auto& [i, j] : checks) {
    if (!(t[i] == t[j])) return false;
  }
  return true;
}

/// Compiled unification program for one relation literal: constant
/// positions to check, repeated-variable positions to cross-check, and the
/// first tuple position of each distinct variable.
struct LiteralShape {
  std::vector<std::pair<size_t, Value>> const_checks;
  std::vector<std::pair<size_t, size_t>> repeat_checks;  ///< (pos, first pos)
  std::vector<int> first_pos;                            ///< var -> position
  std::vector<int> distinct_vars;  ///< first-occurrence order

  LiteralShape() = default;
  LiteralShape(const Literal& l, size_t nvars) : first_pos(nvars, -1) {
    for (size_t i = 0; i < l.args.size(); ++i) {
      const Term& t = l.args[i];
      if (t.is_const()) {
        const_checks.emplace_back(i, t.constant);
      } else if (first_pos[t.var] >= 0) {
        repeat_checks.emplace_back(i, static_cast<size_t>(first_pos[t.var]));
      } else {
        first_pos[t.var] = static_cast<int>(i);
        distinct_vars.push_back(t.var);
      }
    }
  }

  bool Matches(const Tuple& t) const {
    for (const auto& [i, c] : const_checks) {
      if (!(t[i] == c)) return false;
    }
    return RepeatsMatch(t);
  }

  /// The repeated-variable cross-checks alone (constants pushed down).
  bool RepeatsMatch(const Tuple& t) const {
    return objectlog::RepeatsMatch(repeat_checks, t);
  }
};

/// Probe-pattern recipe of one relation literal against a batch layout:
/// constants in place, bound variables read from the batch row, every
/// other position a wildcard.
struct ProbeRecipe {
  size_t arity = 0;
  std::vector<std::pair<size_t, Value>> consts;
  std::vector<std::pair<size_t, int>> cols;  ///< (position, batch column)

  ProbeRecipe() = default;
  ProbeRecipe(const Literal& l, const std::vector<bool>& bound,
              const Layout& layout)
      : arity(l.args.size()) {
    for (size_t i = 0; i < l.args.size(); ++i) {
      const Term& t = l.args[i];
      if (t.is_const()) {
        consts.emplace_back(i, t.constant);
      } else if (bound[t.var]) {
        cols.emplace_back(i, layout.col_of_var[t.var]);
      }
    }
  }

  /// Refills `*pattern` in place for batch row `row`.
  void Fill(const ColumnTable& batch, size_t row, ScanPattern* pattern) const {
    pattern->assign(arity, std::nullopt);
    for (const auto& [i, c] : consts) (*pattern)[i] = c;
    for (const auto& [i, col] : cols) (*pattern)[i] = batch.Get(row, col);
  }
};

/// One pipeline step after the Δ generator, compiled against the layout
/// of the batch it consumes.
struct KernelStep {
  Literal::Kind kind = Literal::Kind::kRelation;
  size_t slot = 0;  ///< body position: the step's profile slot
  Layout out;          ///< layout of the batch the step produces
  ColumnCopier copier;  ///< input layout -> out

  // kCompare: a `=` binder copies `a` into the fresh column; a filter
  // keeps rows where cmp(a, b) holds.
  CompareOp cmp = CompareOp::kEq;
  bool binder = false;
  // kArith: out = a op b, or a check against `expect` when out is bound.
  ArithOp arith = ArithOp::kAdd;
  bool check = false;
  Operand a;
  Operand b;
  Operand expect;

  // kRelation.
  RelationId relation = kInvalidRelationId;
  EvalState state = EvalState::kNew;
  bool negated = false;
  /// Negated, or nothing new to bind: an existence (or absence) filter.
  bool existence = false;
  /// A stored base relation — directly enumerable for builds and
  /// semi-join probes (a materialized view qualifies too, at run time).
  bool stored = false;
  LiteralShape shape;
  bool any_pattern = false;  ///< constants or join variables to push down
  size_t num_new = 0;        ///< unbound distinct variables bound here
  std::vector<size_t> key_cols;  ///< batch columns of the join variables
  ProbeRecipe probe;
  /// Joins: the build side, whose new-variable positions also lay out the
  /// probe candidates.
  BuildSideKey side;
  /// (dst column, index among the new variables) of each fresh variable:
  /// its column in the probe candidates, or past the join columns in the
  /// build table.
  std::vector<std::pair<int, int>> fresh_new;
  /// Observed selectivity for this (relation, nbound) shape, or the
  /// 0.1-per-bound-position default.
  double selectivity = 1.0;
};

}  // namespace

struct KernelPlan::Program {
  /// Body positions in execution order (OrderBody's, Δ generator first).
  std::vector<size_t> order;

  // Step 0: the Δ generator.
  RelationId delta_relation = kInvalidRelationId;
  bool delta_plus = true;
  LiteralShape delta_shape;
  Layout delta_layout;
  std::vector<size_t> delta_pos;  ///< generator tuple position per column

  /// Step whose literal the semi-join pre-filter probes right after the Δ
  /// step (0: none); it applies when that literal's extent is enumerable.
  size_t semijoin_step = 0;
  std::vector<size_t> semijoin_key_cols;
  ProbeRecipe semijoin_probe;

  std::vector<KernelStep> steps;  ///< steps[k - 1] is step k

  std::vector<Operand> head_ops;
  std::vector<Operand> delta_ops;  ///< empty unless derivations
};

uint64_t KernelPlan::compilations() {
  return g_plan_compilations.load(std::memory_order_relaxed);
}

bool KernelPlan::FreshFor(const StatsStore& stats, bool derivations) const {
  return compiled_ && derivations_ == derivations &&
         stats_version_ == stats.version();
}

KernelPlan KernelPlan::Compile(const Clause& clause,
                               const DerivedRegistry& registry,
                               const Catalog& catalog, bool derivations) {
  g_plan_compilations.fetch_add(1, std::memory_order_relaxed);
  KernelPlan plan;
  plan.compiled_ = true;
  plan.derivations_ = derivations;
  const StatsStore& stats = catalog.stats();
  // Read before ordering: a Record racing this compile leaves the plan
  // stale (recompiled next time) rather than silently mixed.
  plan.stats_version_ = stats.version();

  const std::vector<Literal>& body = clause.body;
  size_t nvars = static_cast<size_t>(std::max(clause.num_vars, 0));

  // Shape screen: exactly one Δ-role generator, and no relation with
  // bespoke scan semantics (aggregate folds, foreign implementations,
  // recursive fixpoints) anywhere in the body.
  size_t ndelta = 0;
  for (const Literal& l : body) {
    if (l.kind != Literal::Kind::kRelation) continue;
    if (l.role != RelationRole::kExtent) {
      if (l.negated) return plan;
      ++ndelta;
    }
    if (registry.GetAggregate(l.relation) != nullptr ||
        registry.GetForeign(l.relation) != nullptr ||
        registry.IsRecursive(l.relation)) {
      return plan;
    }
  }
  if (ndelta != 1) return plan;

  std::vector<size_t> order =
      Evaluator::OrderBody(body, clause.num_vars, std::vector<bool>(nvars),
                           &stats);
  size_t nsteps = order.size();
  if (body[order[0]].kind != Literal::Kind::kRelation ||
      body[order[0]].role == RelationRole::kExtent) {
    return plan;
  }

  // Boundness simulation over the interpreter's own order: every step must
  // be batch-evaluable, and the head fully bound at the end. Any literal
  // the batch kernels can't express declines the whole clause.
  std::vector<std::vector<bool>> bound_after(nsteps);
  {
    std::vector<bool> bound(nvars, false);
    auto term_bound = [&bound](const Term& t) {
      return t.is_const() || bound[t.var];
    };
    for (size_t k = 0; k < nsteps; ++k) {
      const Literal& l = body[order[k]];
      switch (l.kind) {
        case Literal::Kind::kCompare: {
          bool b0 = term_bound(l.args[0]);
          bool b1 = term_bound(l.args[1]);
          if (b0 && b1) break;  // pure filter
          if (l.cmp == CompareOp::kEq && (b0 || b1)) {
            bound[(b0 ? l.args[1] : l.args[0]).var] = true;  // binder
            break;
          }
          return plan;
        }
        case Literal::Kind::kArith:
          if (!term_bound(l.args[1]) || !term_bound(l.args[2])) return plan;
          if (l.args[0].is_var()) bound[l.args[0].var] = true;
          break;
        case Literal::Kind::kRelation:
          if (l.role != RelationRole::kExtent) {
            if (k != 0) return plan;  // generator must lead the pipeline
            for (const Term& t : l.args) {
              if (t.is_var()) bound[t.var] = true;
            }
            break;
          }
          if (l.negated) {
            // Unbound positions are wildcards only when single-use.
            for (const Term& t : l.args) {
              if (term_bound(t)) continue;
              int uses = 0;
              for (const Literal& other : body) {
                for (const Term& ot : other.args) {
                  if (ot.is_var() && ot.var == t.var) ++uses;
                }
              }
              if (uses > 1) return plan;
            }
            break;
          }
          for (const Term& t : l.args) {
            if (t.is_var()) bound[t.var] = true;
          }
          break;
      }
      bound_after[k] = bound;
    }
    for (const Term& h : clause.head_args) {
      if (h.is_var() && !bound[h.var]) return plan;
    }
  }

  // Liveness: needed_in[k] = variables read at steps >= k or by the head.
  // Each step's output batch keeps exactly bound ∩ needed_in[k+1].
  // Derivations also read the generator's variables at the head, to
  // rebuild the Δ-row each output row came from.
  std::vector<std::vector<bool>> needed_in(nsteps + 1,
                                           std::vector<bool>(nvars, false));
  for (const Term& h : clause.head_args) {
    if (h.is_var()) needed_in[nsteps][h.var] = true;
  }
  if (derivations) {
    for (const Term& t : body[order[0]].args) {
      if (t.is_var()) needed_in[nsteps][t.var] = true;
    }
  }
  for (size_t k = nsteps; k-- > 0;) {
    needed_in[k] = needed_in[k + 1];
    for (const Term& t : body[order[k]].args) {
      if (t.is_var()) needed_in[k][t.var] = true;
    }
  }

  auto program = std::make_shared<Program>();
  Program& p = *program;
  p.order = order;

  // Step 0: the Δ side's unification and column sources.
  const Literal& dl = body[order[0]];
  p.delta_relation = dl.relation;
  p.delta_plus = dl.role == RelationRole::kDeltaPlus;
  p.delta_shape = LiteralShape(dl, nvars);
  p.delta_layout = Layout(nvars, bound_after[0], needed_in[1]);
  for (int v : p.delta_layout.var_of_col) {
    p.delta_pos.push_back(static_cast<size_t>(p.delta_shape.first_pos[v]));
  }

  // Steps 1..n: each compiled against the layout it consumes.
  const Layout* in = &p.delta_layout;
  p.steps.reserve(nsteps - 1);
  for (size_t k = 1; k < nsteps; ++k) {
    const Literal& l = body[order[k]];
    const std::vector<bool>& bound = bound_after[k - 1];
    auto bound_prev = [&bound](const Term& t) {
      return t.is_const() || bound[t.var];
    };
    KernelStep& s = p.steps.emplace_back();
    s.kind = l.kind;
    s.slot = order[k];
    s.out = Layout(nvars, bound_after[k], needed_in[k + 1]);
    s.copier = ColumnCopier(*in, s.out);
    switch (l.kind) {
      case Literal::Kind::kCompare: {
        s.cmp = l.cmp;
        bool b0 = bound_prev(l.args[0]);
        bool b1 = bound_prev(l.args[1]);
        if (l.cmp == CompareOp::kEq && b0 != b1) {
          // Equality binder: no filtering; the bound side's value becomes
          // the unbound variable's column (when still live).
          s.binder = true;
          s.a = CompileOperand(b0 ? l.args[0] : l.args[1], *in);
        } else {
          s.a = CompileOperand(l.args[0], *in);
          s.b = CompileOperand(l.args[1], *in);
        }
        break;
      }
      case Literal::Kind::kArith:
        s.arith = l.arith;
        s.a = CompileOperand(l.args[1], *in);
        s.b = CompileOperand(l.args[2], *in);
        s.check = bound_prev(l.args[0]);
        if (s.check) s.expect = CompileOperand(l.args[0], *in);
        break;
      case Literal::Kind::kRelation: {
        s.relation = l.relation;
        s.state = l.state;
        s.negated = l.negated;
        s.stored = catalog.GetBaseRelation(l.relation) != nullptr;
        s.shape = LiteralShape(l, nvars);
        std::vector<int> join_vars;  // bound distinct vars, arg order
        std::vector<int> new_vars;   // unbound distinct vars, arg order
        for (int v : s.shape.distinct_vars) {
          (bound[v] ? join_vars : new_vars).push_back(v);
        }
        s.num_new = new_vars.size();
        s.existence = l.negated || new_vars.empty();
        s.any_pattern = !s.shape.const_checks.empty() || !join_vars.empty();
        s.probe = ProbeRecipe(l, bound, *in);
        for (int v : join_vars) {
          s.key_cols.push_back(static_cast<size_t>(in->col_of_var[v]));
        }
        if (s.existence) break;

        // Join: the build side scans with the constants pushed down into
        // a table of join columns then new-variable columns; probe
        // candidates hold the new-variable columns alone.
        s.side.relation = l.relation;
        s.side.state = l.state;
        s.side.pattern = ScanPattern(l.args.size());
        for (const auto& [i, c] : s.shape.const_checks) s.side.pattern[i] = c;
        s.side.repeat_checks = s.shape.repeat_checks;
        for (size_t c = 0; c < join_vars.size(); ++c) {
          s.side.join_pos.push_back(
              static_cast<size_t>(s.shape.first_pos[join_vars[c]]));
          s.side.index_cols.push_back(c);
        }
        for (int v : new_vars) {
          s.side.new_pos.push_back(static_cast<size_t>(s.shape.first_pos[v]));
        }
        for (const auto& [dst, var] : s.copier.fresh) {
          s.fresh_new.emplace_back(
              dst, static_cast<int>(
                       std::find(new_vars.begin(), new_vars.end(), var) -
                       new_vars.begin()));
        }
        size_t nbound_pos = 0;
        for (const Term& t : l.args) {
          if (bound_prev(t)) ++nbound_pos;
        }
        s.selectivity =
            stats
                .Selectivity(l.relation,
                             static_cast<int>(RelationRole::kExtent),
                             static_cast<int>(nbound_pos))
                .value_or(std::pow(0.1, static_cast<double>(nbound_pos)));
        break;
      }
    }
    in = &s.out;
  }

  // Semi-join pre-filter (structural rule): when one or more compute steps
  // separate the Δ generator from the first extent literal joining it, and
  // that literal's extent is enumerable, probe its key set right after the
  // Δ step and discard Δ rows with no join partner before paying for the
  // intermediates. The later join step still runs (and reports
  // "semijoin-filtered" as its access).
  bool intermediate = false;
  for (size_t k = 1; k < nsteps; ++k) {
    const Literal& l = body[order[k]];
    if (l.kind != Literal::Kind::kRelation || l.negated) {
      intermediate = true;  // per-row work the pre-filter can skip
      continue;
    }
    std::vector<bool> seen(nvars, false);
    std::vector<size_t> key_cols;
    for (const Term& t : l.args) {
      if (t.is_var() && bound_after[0][t.var] && !seen[t.var]) {
        seen[t.var] = true;
        key_cols.push_back(
            static_cast<size_t>(p.delta_layout.col_of_var[t.var]));
      }
    }
    if (!key_cols.empty() && intermediate) {
      p.semijoin_step = k;
      p.semijoin_key_cols = std::move(key_cols);
      p.semijoin_probe = ProbeRecipe(l, bound_after[0], p.delta_layout);
    }
    break;  // only the first extent literal qualifies
  }

  // Head projection; with derivations, the generator's args rebuild each
  // row's Δ-row alongside.
  p.head_ops = CompileOperands(clause.head_args, *in);
  if (derivations) p.delta_ops = CompileOperands(dl.args, *in);

  plan.program_ = std::move(program);
  return plan;
}

/// A build join's side: the extent's tuples that pass its key's constants
/// and repeated-variable checks, join columns first, then the new
/// variables' columns, indexed on the join columns.
struct BuildSide {
  ColumnTable table;
  ColumnTable::HashIndex index;
};

struct BuildSideStore::Entry {
  explicit Entry(const BuildSideKey& k) : key(k) {}

  const BuildSideKey key;
  std::mutex mu;  ///< held while the side is built
  bool built = false;
  Status status = Status::OK();  ///< the build's outcome, once built
  BuildSide side;
};

BuildSideStore::BuildSideStore() = default;
BuildSideStore::~BuildSideStore() = default;

BuildSideStore::Entry& BuildSideStore::Find(const BuildSideKey& key) {
  std::lock_guard<std::mutex> lock(mu_);
  for (const std::unique_ptr<Entry>& e : entries_) {
    if (e->key == key) return *e;
  }
  return *entries_.emplace_back(std::make_unique<Entry>(key));
}

/// RunKernelPlan's working storage. Every table and vector is reset
/// between uses, never freed, so once warm a one-row partial differential
/// allocates only its head tuples. An EvalCache owns it; EvalCache::Clear
/// and dropping the cache free it.
struct KernelScratch {
  /// The batch a step consumes and the one it produces, swapped per step.
  ColumnTable tables[2];
  BuildSide side;    ///< a build join's side when no wave store holds it
  ColumnTable cand;  ///< a probe join's candidates, one range per group
  ColumnTable::Grouping grouping;
  /// Surviving batch rows in emission order, and for joins the build or
  /// candidate row each is paired with.
  std::vector<uint32_t> sel;
  std::vector<uint32_t> match;
  std::vector<size_t> hashes;    ///< batch-side key hashes
  std::vector<uint32_t> ranges;  ///< group g's candidates: [g], [g + 1]
  std::vector<char> keep;        ///< per group: its rows survive
  ScanPattern pattern;
  bool running = false;  ///< a RunKernelPlan call is using it
};

EvalCache::EvalCache() = default;
EvalCache::~EvalCache() = default;
EvalCache::EvalCache(EvalCache&&) noexcept = default;
EvalCache& EvalCache::operator=(EvalCache&&) noexcept = default;

void EvalCache::Clear() {
  extents_.clear();
  indexed_.clear();
  kernel_scratch_.reset();
}

KernelScratch& EvalCache::kernel_scratch() {
  if (kernel_scratch_ == nullptr) {
    kernel_scratch_ = std::make_unique<KernelScratch>();
  }
  return *kernel_scratch_;
}

namespace {

/// Marks a KernelScratch in use for one RunKernelPlan call.
class ScratchLease {
 public:
  explicit ScratchLease(KernelScratch& scratch) : scratch_(scratch) {
    assert(!scratch_.running && "RunKernelPlan re-entered on one EvalCache");
    scratch_.running = true;
  }
  ScratchLease(const ScratchLease&) = delete;
  ScratchLease& operator=(const ScratchLease&) = delete;
  ~ScratchLease() { scratch_.running = false; }

 private:
  KernelScratch& scratch_;
};

/// What a probe join's ScanRelation callback appends to, behind the single
/// pointer the callback captures — so the std::function built from it
/// stays in its small buffer instead of allocating.
struct ScanSink {
  const KernelStep* step;
  ColumnTable* table;
  obs::LiteralProfile* slot;  ///< counts each tuple tried
};

/// The same for a build side's scan.
struct BuildSink {
  const BuildSideKey* key;
  ColumnTable* table;
};

}  // namespace

Status Evaluator::RunKernelPlan(const KernelPlan& plan, const Clause& clause,
                                TupleSet* out, Derivations* derivations) {
  const KernelPlan::Program& p = *plan.program_;
  ++stats_.clause_evals;
  obs::ClauseProfile* cp = BeginClauseProfile(clause);
  auto slot_of = [cp](size_t pos) {
    return cp != nullptr ? &cp->slots[pos] : nullptr;
  };

  // Kernel execution never re-enters RunKernelPlan on one evaluator:
  // nested derived-relation reads run in the interpreter, and clauses with
  // foreign, aggregate or recursive literals are ineligible. A cache serves
  // one thread's evaluations (the propagator keeps one per worker), so one
  // scratch per cache is enough.
  KernelScratch& sc = cache_->kernel_scratch();
  ScratchLease lease(sc);
  ColumnTable* batch = &sc.tables[0];
  ColumnTable* next = &sc.tables[1];

  // Step 0: materialize the Δ side into the wave-front table.
  {
    obs::LiteralProfile* slot = slot_of(p.order[0]);
    obs::LiteralSlotTimer timer(slot);
    if (slot != nullptr) ++slot->rows_in;
    const DeltaSet* delta = ctx_.DeltaFor(p.delta_relation);
    if (delta == nullptr) return Status::OK();  // no change set: empty
    const TupleSet& side = p.delta_plus ? delta->plus() : delta->minus();
    batch->Reset(p.delta_layout.width());
    batch->Reserve(side.size());
    for (const Tuple& t : side) {
      ++stats_.tuples_examined;
      if (slot != nullptr) ++slot->bindings_tried;
      if (!p.delta_shape.Matches(t)) continue;
      for (size_t c = 0; c < p.delta_pos.size(); ++c) {
        batch->AppendCell(c, t[p.delta_pos[c]]);
      }
      batch->FinishRow();
    }
    stats_.bindings_produced +=
        batch->num_rows() * p.delta_shape.distinct_vars.size();
    if (slot != nullptr) slot->rows_out += batch->num_rows();
  }

  // Existence selection, shared by the semi-join pre-filter and existence
  // steps: one stop-at-first probe per distinct key over `key_cols`, then
  // sc.sel lists, ascending, the rows whose group found a witness
  // (`keep_found`) or found none (!keep_found).
  auto select_by_existence = [&](const std::vector<size_t>& key_cols,
                                 const KernelStep& s, const ProbeRecipe& probe,
                                 bool keep_found,
                                 uint64_t* probe_count) -> Status {
    batch->GroupByKey(key_cols, &sc.grouping);
    sc.keep.assign(sc.grouping.size(), 0);
    for (size_t g = 0; g < sc.grouping.size(); ++g) {
      if (probe_count != nullptr) ++*probe_count;
      bool exists = false;
      probe.Fill(*batch, sc.grouping.reps[g], &sc.pattern);
      DELTAMON_RETURN_IF_ERROR(ScanRelation(
          s.relation, s.state, sc.pattern, [&exists](const Tuple&) {
            exists = true;
            return false;  // stop at the first witness
          }));
      sc.keep[g] = exists == keep_found;
    }
    sc.sel.clear();
    for (size_t row = 0; row < batch->num_rows(); ++row) {
      if (sc.keep[sc.grouping.group_of[row]]) {
        sc.sel.push_back(static_cast<uint32_t>(row));
      }
    }
    return Status::OK();
  };

  // A build join's side: one scan of the extent (constants pushed down)
  // into a columnar table, indexed on its join columns. Over a stored
  // relation in a propagation wave, the wave's store holds the side and
  // the first step to need it builds it; every other step (an ad-hoc
  // evaluation, a materialized view) builds its own into the scratch.
  auto build_side = [&](const BuildSideKey& key,
                        bool shared) -> Result<const BuildSide*> {
    auto fill = [this, &key](BuildSide& side) -> Status {
      side.table.Reset(key.join_pos.size() + key.new_pos.size());
      const BuildSink sink{&key, &side.table};
      DELTAMON_RETURN_IF_ERROR(ScanRelation(
          key.relation, key.state, key.pattern, [&sink](const Tuple& t) {
            const BuildSideKey& k = *sink.key;
            if (!RepeatsMatch(k.repeat_checks, t)) return true;
            size_t c = 0;
            for (size_t pos : k.join_pos) sink.table->AppendCell(c++, t[pos]);
            for (size_t pos : k.new_pos) sink.table->AppendCell(c++, t[pos]);
            sink.table->FinishRow();
            return true;
          }));
      side.table.BuildIndex(key.index_cols, &side.index);
      return Status::OK();
    };
    if (!shared) {
      DELTAMON_RETURN_IF_ERROR(fill(sc.side));
      return &sc.side;
    }
    BuildSideStore::Entry& entry = ctx_.build_sides->Find(key);
    std::lock_guard<std::mutex> lock(entry.mu);
    if (!entry.built) {
      entry.status = fill(entry.side);
      entry.built = true;
    }
    DELTAMON_RETURN_IF_ERROR(entry.status);
    return &entry.side;  // final once built: read on without the lock
  };

  // Semi-join pre-filter: one stop-at-first existence probe per distinct
  // Δ-key of the flagged literal — when its extent is enumerable here.
  size_t semijoin_step = 0;
  if (p.semijoin_step != 0) {
    const KernelStep& s = p.steps[p.semijoin_step - 1];
    if (s.stored || ctx_.ViewFor(s.relation) != nullptr) {
      semijoin_step = p.semijoin_step;
    }
  }
  if (semijoin_step != 0 && !batch->empty()) {
    const KernelStep& s = p.steps[semijoin_step - 1];
    obs::LiteralProfile* slot = slot_of(s.slot);
    obs::LiteralSlotTimer timer(slot);
    DELTAMON_RETURN_IF_ERROR(select_by_existence(
        p.semijoin_key_cols, s, p.semijoin_probe, /*keep_found=*/true,
        slot != nullptr ? &slot->probes : nullptr));
    next->Reset(batch->num_cols());
    for (size_t c = 0; c < batch->num_cols(); ++c) {
      next->Gather(c, *batch, c, sc.sel);
    }
    next->FinishRows(sc.sel.size());
    std::swap(batch, next);
  }

  // Steps 1..n: each selects the surviving batch rows (and, for joins, the
  // build or candidate row paired with each) into sc.sel / sc.match, then
  // builds the next batch a column at a time: one gather per passthrough
  // column, plus the fresh columns the step binds.
  for (size_t k = 1; k < p.order.size() && !batch->empty(); ++k) {
    const KernelStep& s = p.steps[k - 1];
    obs::LiteralProfile* slot = slot_of(s.slot);
    obs::LiteralSlotTimer timer(slot);
    const size_t rows = batch->num_rows();
    if (slot != nullptr) slot->rows_in += rows;
    next->Reset(s.out.width());
    next->Reserve(rows);
    sc.sel.clear();
    sc.match.clear();

    switch (s.kind) {
      case Literal::Kind::kCompare: {
        if (slot != nullptr) slot->bindings_tried += rows;
        if (s.binder) {
          for (size_t row = 0; row < rows; ++row) {
            sc.sel.push_back(static_cast<uint32_t>(row));
          }
          for (const auto& [dst, var] : s.copier.fresh) {
            if (!s.a.is_const) {
              next->Gather(dst, *batch, s.a.col, sc.sel);
              continue;
            }
            for (size_t row = 0; row < rows; ++row) {
              next->AppendCell(dst, s.a.constant);
            }
          }
          break;
        }
        for (size_t row = 0; row < rows; ++row) {
          if (EvalCompare(s.cmp, OperandValue(s.a, *batch, row),
                          OperandValue(s.b, *batch, row))) {
            sc.sel.push_back(static_cast<uint32_t>(row));
          }
        }
        break;
      }

      case Literal::Kind::kArith: {
        if (slot != nullptr) slot->bindings_tried += rows;
        for (size_t row = 0; row < rows; ++row) {
          Value av = OperandValue(s.a, *batch, row);
          Value bv = OperandValue(s.b, *batch, row);
          Result<Value> r = [&]() {
            switch (s.arith) {
              case ArithOp::kAdd:
                return Add(av, bv);
              case ArithOp::kSub:
                return Subtract(av, bv);
              case ArithOp::kMul:
                return Multiply(av, bv);
              case ArithOp::kDiv:
                return Divide(av, bv);
            }
            return Result<Value>(Status::Internal("bad arith op"));
          }();
          // Arithmetic failure makes the row underivable, not an error —
          // same contract as the interpreter.
          if (!r.ok()) continue;
          if (s.check) {
            if (OperandValue(s.expect, *batch, row).Compare(*r) != 0) continue;
          } else {
            // The result goes straight to its fresh column, in the same
            // (selection) order as the rows the gathers below copy.
            for (const auto& [dst, var] : s.copier.fresh) {
              next->AppendCell(dst, *r);
            }
          }
          sc.sel.push_back(static_cast<uint32_t>(row));
        }
        break;
      }

      case Literal::Kind::kRelation: {
        if (s.existence) {
          // Existence (or absence) filter: whole groups survive or die
          // together.
          if (slot != nullptr) slot->bindings_tried += rows;
          uint64_t* probe_count = nullptr;
          if (slot != nullptr) {
            probe_count = s.any_pattern ? &slot->probes : &slot->scans;
          }
          DELTAMON_RETURN_IF_ERROR(select_by_existence(
              s.key_cols, s, s.probe, /*keep_found=*/!s.negated, probe_count));
          if (slot != nullptr && !s.negated) {
            slot->access = (k == semijoin_step) ? "semijoin-filtered"
                                                : "hash-join/probe";
          }
          break;
        }

        // Join: pick build or probe by estimated cost. E is the extent
        // estimate, m = E × selectivity the expected match fanout per
        // batch row, R the batch size. A probe pays a ScanRelation
        // dispatch (pattern build, index lookup, callback chain) per
        // distinct key — weight 8 — while a build pays one extent
        // materialization (weight 1.5 per tuple) plus a cheap dense hash
        // lookup per row. Build is only available when the extent can be
        // enumerated directly (stored base relation or materialized view).
        double extent = ExtentEstimate(s.relation);
        double m = extent * s.selectivity;
        double r_rows = static_cast<double>(rows);
        double cost_probe = r_rows * (8.0 + m);
        double cost_build = 1.5 * extent + r_rows * (1.0 + m);
        bool build_ok = !s.key_cols.empty() &&
                        (s.stored || ctx_.ViewFor(s.relation) != nullptr);
        bool use_build = build_ok && cost_build <= cost_probe;

        if (use_build) {
          // BUILD: get the side (join columns first, then the new
          // variables' columns, indexed on the join columns); every batch
          // row then walks its hash chain, batch rows ascending. A side
          // read from the wave's store still counts one scan here, so
          // profiles do not depend on which step built it.
          if (slot != nullptr) ++slot->scans;
          DELTAMON_ASSIGN_OR_RETURN(
              const BuildSide* side,
              build_side(s.side, s.stored && ctx_.build_sides != nullptr));
          const ColumnTable& table = side->table;
          const ColumnTable::HashIndex& index = side->index;
          batch->KeyHashes(s.key_cols, &sc.hashes);
          for (size_t row = 0; row < rows; ++row) {
            for (uint32_t er = index.First(sc.hashes[row]);
                 er != ColumnTable::HashIndex::kNoRow; er = index.Next(er)) {
              if (slot != nullptr) ++slot->bindings_tried;
              if (table.KeyEquals(er, s.side.index_cols, *batch, row,
                                  s.key_cols)) {
                sc.sel.push_back(static_cast<uint32_t>(row));
                sc.match.push_back(er);
              }
            }
          }
          const size_t njoin = s.side.join_pos.size();
          for (const auto& [dst, i] : s.fresh_new) {
            next->Gather(dst, table, njoin + i, sc.match);
          }
          if (slot != nullptr) {
            slot->access = (k == semijoin_step) ? "semijoin-filtered"
                                                : "hash-join/build";
          }
        } else {
          // PROBE: group the batch by its distinct join keys; each group
          // issues one ScanRelation with the key (and constants) pushed
          // down, appending the matches' new-variable columns to one
          // candidate table as the group's range, then emits group ×
          // member × candidate.
          batch->GroupByKey(s.key_cols, &sc.grouping);
          sc.cand.Reset(s.num_new);
          sc.ranges.assign(1, 0);
          const ScanSink sink{&s, &sc.cand, slot};
          for (size_t g = 0; g < sc.grouping.size(); ++g) {
            if (slot != nullptr) ++(s.any_pattern ? slot->probes : slot->scans);
            s.probe.Fill(*batch, sc.grouping.reps[g], &sc.pattern);
            DELTAMON_RETURN_IF_ERROR(ScanRelation(
                s.relation, s.state, sc.pattern, [&sink](const Tuple& t) {
                  if (sink.slot != nullptr) ++sink.slot->bindings_tried;
                  // Bound-variable repeats are fully covered by the
                  // pattern; unbound repeats still need the cross-check.
                  if (!sink.step->shape.RepeatsMatch(t)) return true;
                  size_t c = 0;
                  for (size_t pos : sink.step->side.new_pos) {
                    sink.table->AppendCell(c++, t[pos]);
                  }
                  sink.table->FinishRow();
                  return true;
                }));
            sc.ranges.push_back(static_cast<uint32_t>(sc.cand.num_rows()));
          }
          for (size_t g = 0; g < sc.grouping.size(); ++g) {
            for (uint32_t row : sc.grouping.Members(g)) {
              for (uint32_t cr = sc.ranges[g]; cr < sc.ranges[g + 1]; ++cr) {
                sc.sel.push_back(row);
                sc.match.push_back(cr);
              }
            }
          }
          for (const auto& [dst, i] : s.fresh_new) {
            next->Gather(dst, sc.cand, i, sc.match);
          }
          if (slot != nullptr) {
            slot->access = (k == semijoin_step) ? "semijoin-filtered"
                                                : "hash-join/probe";
          }
        }
        stats_.bindings_produced += sc.sel.size() * s.num_new;
        break;
      }
    }
    s.copier.GatherThrough(*batch, sc.sel, *next);
    next->FinishRows(sc.sel.size());
    std::swap(batch, next);
    if (slot != nullptr) slot->rows_out += batch->num_rows();
  }

  // Head projection into the (deduplicating) result set. An early exit on
  // an empty batch leaves no rows to project.
  for (size_t row = 0; row < batch->num_rows(); ++row) {
    Tuple head = ProjectRow(p.head_ops, *batch, row);
    if (derivations != nullptr) {
      derivations->push_back(
          Derivation{head, ProjectRow(p.delta_ops, *batch, row)});
    }
    out->insert(std::move(head));
  }
  return Status::OK();
}

}  // namespace deltamon::objectlog
