/// Batch (set-at-a-time) clause evaluation: the kernel path behind
/// Evaluator::EnableKernels. A partial differential's whole Δ-set is
/// materialized into a columnar wave-front table (common/column_table.h)
/// and pushed through per-literal kernels — dense compare/arith passes,
/// build–probe hash joins, distinct-key existence probes — instead of the
/// tuple-at-a-time recursive interpreter in eval.cc. Results are identical
/// (the certified outputs are all set- or count-valued; emission order is
/// free), only the execution strategy differs. See docs/kernels.md.

#include <algorithm>
#include <chrono>
#include <cmath>
#include <utility>
#include <vector>

#include "common/column_table.h"
#include "objectlog/eval.h"

namespace deltamon::objectlog {
namespace {

/// The wave-front batch between two kernel steps: one column per variable
/// that is bound AND still needed (used by a later literal or the head).
struct Batch {
  ColumnTable table;
  std::vector<int> col_of_var;  ///< var -> column index, -1 when absent
  std::vector<int> var_of_col;  ///< column index -> var
};

Batch MakeLayout(size_t nvars, const std::vector<bool>& bound,
                 const std::vector<bool>& needed) {
  Batch b;
  b.col_of_var.assign(nvars, -1);
  for (size_t v = 0; v < nvars; ++v) {
    if (bound[v] && needed[v]) {
      b.col_of_var[v] = static_cast<int>(b.var_of_col.size());
      b.var_of_col.push_back(static_cast<int>(v));
    }
  }
  b.table = ColumnTable(b.var_of_col.size());
  return b;
}

/// A compiled operand: a constant or a batch column.
struct Operand {
  bool is_const = false;
  Value constant;
  int col = -1;
};

Operand CompileOperand(const Term& t, const Batch& b) {
  Operand o;
  if (t.is_const()) {
    o.is_const = true;
    o.constant = t.constant;
  } else {
    o.col = b.col_of_var[t.var];
  }
  return o;
}

Value OperandValue(const Operand& o, const Batch& b, size_t row) {
  return o.is_const ? o.constant : b.table.Get(row, o.col);
}

/// Row transfer from one batch layout to the next: passthrough columns are
/// copied rep-to-rep; `fresh` lists the destination columns a step must
/// fill with newly bound values before FinishRow.
struct RowCopier {
  std::vector<int> src_of_dst;
  std::vector<std::pair<int, int>> fresh;  ///< (dst column, var)

  RowCopier(const Batch& src, const Batch& dst) {
    src_of_dst.resize(dst.var_of_col.size());
    for (size_t c = 0; c < dst.var_of_col.size(); ++c) {
      int v = dst.var_of_col[c];
      src_of_dst[c] = src.col_of_var[v];
      if (src.col_of_var[v] < 0) fresh.emplace_back(static_cast<int>(c), v);
    }
  }

  void CopyThrough(const Batch& src, Batch& dst, size_t row) const {
    for (size_t c = 0; c < src_of_dst.size(); ++c) {
      if (src_of_dst[c] >= 0) {
        dst.table.AppendCellFrom(c, src.table, src_of_dst[c], row);
      }
    }
  }
};

/// Charges a kernel step's wall time to its profile slot (inactive when no
/// profiler is attached — no clock reads).
class StepTimer {
 public:
  explicit StepTimer(obs::LiteralProfile* slot) : slot_(slot) {
    if (slot_ != nullptr) start_ = std::chrono::steady_clock::now();
  }
  StepTimer(const StepTimer&) = delete;
  StepTimer& operator=(const StepTimer&) = delete;
  ~StepTimer() {
    if (slot_ == nullptr) return;
    auto elapsed = std::chrono::steady_clock::now() - start_;
    slot_->time_ns += static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(elapsed)
            .count());
  }

 private:
  obs::LiteralProfile* slot_;
  std::chrono::steady_clock::time_point start_;
};

/// Compiled unification program for one relation literal: constant
/// positions to check, repeated-variable positions to cross-check, and the
/// first tuple position of each distinct variable.
struct LiteralShape {
  std::vector<std::pair<size_t, Value>> const_checks;
  std::vector<std::pair<size_t, size_t>> repeat_checks;  ///< (pos, first pos)
  std::vector<int> first_pos;                            ///< var -> position
  std::vector<int> distinct_vars;  ///< first-occurrence order

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
    for (const auto& [i, j] : repeat_checks) {
      if (!(t[i] == t[j])) return false;
    }
    return true;
  }
};

}  // namespace

Result<bool> Evaluator::TryEvaluateClauseKernel(const Clause& clause,
                                                TupleSet* out,
                                                Derivations* derivations) {
  // Transactional reads must flow through the snapshot's footprint
  // recording one probe at a time; the batch path stays out of the way.
  if (ctx_.txn != nullptr) return false;
  const std::vector<Literal>& body = clause.body;
  size_t nvars = static_cast<size_t>(std::max(clause.num_vars, 0));

  // Shape screen: exactly one Δ-role generator, and no relation with
  // bespoke scan semantics (aggregate folds, foreign implementations,
  // recursive fixpoints) anywhere in the body.
  size_t ndelta = 0;
  for (const Literal& l : body) {
    if (l.kind != Literal::Kind::kRelation) continue;
    if (l.role != RelationRole::kExtent) {
      if (l.negated) return false;
      ++ndelta;
    }
    if (registry_.GetAggregate(l.relation) != nullptr ||
        registry_.GetForeign(l.relation) != nullptr ||
        registry_.IsRecursive(l.relation)) {
      return false;
    }
  }
  if (ndelta != 1) return false;

  const StatsStore& stats = db_.catalog().stats();
  std::vector<size_t> order =
      OrderBody(body, clause.num_vars, std::vector<bool>(nvars), &stats);
  size_t nsteps = order.size();
  if (body[order[0]].kind != Literal::Kind::kRelation ||
      body[order[0]].role == RelationRole::kExtent) {
    return false;
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
          return false;
        }
        case Literal::Kind::kArith:
          if (!term_bound(l.args[1]) || !term_bound(l.args[2])) return false;
          if (l.args[0].is_var()) bound[l.args[0].var] = true;
          break;
        case Literal::Kind::kRelation:
          if (l.role != RelationRole::kExtent) {
            if (k != 0) return false;  // generator must lead the pipeline
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
              if (uses > 1) return false;
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
      if (h.is_var() && !bound[h.var]) return false;
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
  if (derivations != nullptr) {
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

  // Semi-join pre-filter (structural, data-independent rule): when one or
  // more compute steps separate the Δ generator from the first extent
  // literal joining it, and that literal is a stored base relation or a
  // materialized view, probe its key set right after the Δ step and
  // discard Δ rows with no join partner before paying for the
  // intermediates. The later join step still runs (and reports
  // "semijoin-filtered" as its access).
  size_t semijoin_step = 0;  // 0 (the Δ step itself) means disabled
  {
    bool intermediate = false;
    for (size_t k = 1; k < nsteps; ++k) {
      const Literal& l = body[order[k]];
      if (l.kind != Literal::Kind::kRelation || l.negated) {
        intermediate = true;  // per-row work the pre-filter can skip
        continue;
      }
      bool joins_delta = false;
      for (const Term& t : l.args) {
        if (t.is_var() && bound_after[0][t.var]) {
          joins_delta = true;
          break;
        }
      }
      if (joins_delta && intermediate &&
          (db_.catalog().GetBaseRelation(l.relation) != nullptr ||
           ctx_.ViewFor(l.relation) != nullptr)) {
        semijoin_step = k;
      }
      break;  // only the first extent literal qualifies
    }
  }

  // ---- Execution ----
  ++stats_.clause_evals;
  obs::ClauseProfile* cp = BeginClauseProfile(clause);

  // Step 0: materialize the Δ side into the wave-front table.
  Batch batch;
  {
    const Literal& dl = body[order[0]];
    obs::LiteralProfile* slot = cp ? &cp->slots[order[0]] : nullptr;
    StepTimer timer(slot);
    if (slot != nullptr) ++slot->rows_in;
    const DeltaSet* delta = ctx_.DeltaFor(dl.relation);
    if (delta == nullptr) return true;  // no change set: empty result
    const TupleSet& side = dl.role == RelationRole::kDeltaPlus
                               ? delta->plus()
                               : delta->minus();
    batch = MakeLayout(nvars, bound_after[0], needed_in[1]);
    batch.table.Reserve(side.size());
    LiteralShape shape(dl, nvars);
    for (const Tuple& t : side) {
      ++stats_.tuples_examined;
      if (slot != nullptr) ++slot->bindings_tried;
      if (!shape.Matches(t)) continue;
      for (size_t c = 0; c < batch.var_of_col.size(); ++c) {
        batch.table.AppendCell(c, t[shape.first_pos[batch.var_of_col[c]]]);
      }
      batch.table.FinishRow();
    }
    stats_.bindings_produced +=
        batch.table.num_rows() * shape.distinct_vars.size();
    if (slot != nullptr) slot->rows_out += batch.table.num_rows();
  }

  // Semi-join pre-filter: one stop-at-first existence probe per distinct
  // Δ-key of the flagged literal.
  if (semijoin_step != 0 && !batch.table.empty()) {
    const Literal& l = body[order[semijoin_step]];
    obs::LiteralProfile* slot = cp ? &cp->slots[order[semijoin_step]] : nullptr;
    StepTimer timer(slot);
    std::vector<size_t> key_cols;
    {
      std::vector<bool> seen(nvars, false);
      for (const Term& t : l.args) {
        if (t.is_var() && bound_after[0][t.var] && !seen[t.var]) {
          seen[t.var] = true;
          key_cols.push_back(
              static_cast<size_t>(batch.col_of_var[t.var]));
        }
      }
    }
    ColumnTable::Grouping g = batch.table.GroupByKey(key_cols);
    std::vector<char> keep_row(batch.table.num_rows(), 0);
    for (size_t gi = 0; gi < g.reps.size(); ++gi) {
      ScanPattern pattern(l.args.size());
      for (size_t i = 0; i < l.args.size(); ++i) {
        const Term& t = l.args[i];
        if (t.is_const()) {
          pattern[i] = t.constant;
        } else if (bound_after[0][t.var]) {
          pattern[i] = batch.table.Get(g.reps[gi], batch.col_of_var[t.var]);
        }
      }
      if (slot != nullptr) ++slot->probes;
      bool exists = false;
      DELTAMON_RETURN_IF_ERROR(
          ScanRelation(l.relation, l.state, pattern, [&](const Tuple&) {
            exists = true;
            return false;  // stop at the first witness
          }));
      if (exists) {
        for (uint32_t row : g.rows[gi]) keep_row[row] = 1;
      }
    }
    Batch next = MakeLayout(nvars, bound_after[0], needed_in[1]);
    RowCopier copier(batch, next);
    for (size_t row = 0; row < batch.table.num_rows(); ++row) {
      if (!keep_row[row]) continue;
      copier.CopyThrough(batch, next, row);
      next.table.FinishRow();
    }
    batch = std::move(next);
  }

  // Steps 1..n: each consumes the batch and produces the next layout.
  for (size_t k = 1; k < nsteps && !batch.table.empty(); ++k) {
    const Literal& l = body[order[k]];
    obs::LiteralProfile* slot = cp ? &cp->slots[order[k]] : nullptr;
    StepTimer timer(slot);
    size_t rows = batch.table.num_rows();
    if (slot != nullptr) slot->rows_in += rows;
    Batch next = MakeLayout(nvars, bound_after[k], needed_in[k + 1]);
    RowCopier copier(batch, next);
    next.table.Reserve(rows);
    auto bound_prev = [&](const Term& t) {
      return t.is_const() || bound_after[k - 1][t.var];
    };

    switch (l.kind) {
      case Literal::Kind::kCompare: {
        bool b0 = bound_prev(l.args[0]);
        bool b1 = bound_prev(l.args[1]);
        if (l.cmp == CompareOp::kEq && b0 != b1) {
          // Equality binder: no filtering; the bound side's value becomes
          // the unbound variable's column (when still live).
          Operand src = CompileOperand(b0 ? l.args[0] : l.args[1], batch);
          for (size_t row = 0; row < rows; ++row) {
            if (slot != nullptr) ++slot->bindings_tried;
            copier.CopyThrough(batch, next, row);
            for (const auto& [dst, var] : copier.fresh) {
              next.table.AppendCell(dst, OperandValue(src, batch, row));
            }
            next.table.FinishRow();
          }
          break;
        }
        Operand a = CompileOperand(l.args[0], batch);
        Operand b = CompileOperand(l.args[1], batch);
        for (size_t row = 0; row < rows; ++row) {
          if (slot != nullptr) ++slot->bindings_tried;
          if (!EvalCompare(l.cmp, OperandValue(a, batch, row),
                           OperandValue(b, batch, row))) {
            continue;
          }
          copier.CopyThrough(batch, next, row);
          next.table.FinishRow();
        }
        break;
      }

      case Literal::Kind::kArith: {
        Operand a = CompileOperand(l.args[1], batch);
        Operand b = CompileOperand(l.args[2], batch);
        bool check = bound_prev(l.args[0]);
        Operand expect = check ? CompileOperand(l.args[0], batch) : Operand{};
        for (size_t row = 0; row < rows; ++row) {
          if (slot != nullptr) ++slot->bindings_tried;
          Value av = OperandValue(a, batch, row);
          Value bv = OperandValue(b, batch, row);
          Result<Value> r = [&]() {
            switch (l.arith) {
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
          if (check) {
            if (OperandValue(expect, batch, row).Compare(*r) != 0) continue;
            copier.CopyThrough(batch, next, row);
          } else {
            copier.CopyThrough(batch, next, row);
            for (const auto& [dst, var] : copier.fresh) {
              next.table.AppendCell(dst, *r);
            }
          }
          next.table.FinishRow();
        }
        break;
      }

      case Literal::Kind::kRelation: {
        LiteralShape shape(l, nvars);
        std::vector<int> join_vars;  // bound distinct vars, arg order
        std::vector<int> new_vars;   // unbound distinct vars, arg order
        for (int v : shape.distinct_vars) {
          (bound_after[k - 1][v] ? join_vars : new_vars).push_back(v);
        }
        std::vector<size_t> batch_key_cols;
        batch_key_cols.reserve(join_vars.size());
        for (int v : join_vars) {
          batch_key_cols.push_back(static_cast<size_t>(batch.col_of_var[v]));
        }
        bool any_pattern = !shape.const_checks.empty() || !join_vars.empty();
        auto fill_pattern = [&](size_t rep_row) {
          ScanPattern pattern(l.args.size());
          for (size_t i = 0; i < l.args.size(); ++i) {
            const Term& t = l.args[i];
            if (t.is_const()) {
              pattern[i] = t.constant;
            } else if (bound_after[k - 1][t.var]) {
              pattern[i] =
                  batch.table.Get(rep_row, batch.col_of_var[t.var]);
            }
          }
          return pattern;
        };

        if (l.negated || new_vars.empty()) {
          // Existence (or absence) filter: one stop-at-first probe per
          // distinct key, whole groups survive or die together.
          if (slot != nullptr) slot->bindings_tried += rows;
          ColumnTable::Grouping g = batch.table.GroupByKey(batch_key_cols);
          std::vector<char> keep_row(rows, 0);
          for (size_t gi = 0; gi < g.reps.size(); ++gi) {
            if (slot != nullptr) ++(any_pattern ? slot->probes : slot->scans);
            bool exists = false;
            DELTAMON_RETURN_IF_ERROR(ScanRelation(
                l.relation, l.state, fill_pattern(g.reps[gi]),
                [&](const Tuple&) {
                  exists = true;
                  return false;
                }));
            if (exists != l.negated) {
              for (uint32_t row : g.rows[gi]) keep_row[row] = 1;
            }
          }
          for (size_t row = 0; row < rows; ++row) {
            if (!keep_row[row]) continue;
            copier.CopyThrough(batch, next, row);
            next.table.FinishRow();
          }
          if (slot != nullptr && !l.negated) {
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
        size_t nbound_pos = 0;
        for (const Term& t : l.args) {
          if (bound_prev(t)) ++nbound_pos;
        }
        double extent = ExtentEstimate(l.relation);
        double sel =
            stats
                .Selectivity(l.relation,
                             static_cast<int>(RelationRole::kExtent),
                             static_cast<int>(nbound_pos))
                .value_or(std::pow(0.1, static_cast<double>(nbound_pos)));
        double m = extent * sel;
        double r_rows = static_cast<double>(rows);
        double cost_probe = r_rows * (8.0 + m);
        double cost_build = 1.5 * extent + r_rows * (1.0 + m);
        bool build_ok =
            !join_vars.empty() &&
            (db_.catalog().GetBaseRelation(l.relation) != nullptr ||
             ctx_.ViewFor(l.relation) != nullptr);
        bool use_build = build_ok && cost_build <= cost_probe;

        // Destination column of each still-live new variable in the side
        // table built below (ext for build, cand for probe): new_vars
        // order, dense.
        std::vector<int> side_col_of_var(nvars, -1);

        if (use_build) {
          // BUILD: one scan of the extent (constants pushed down) into a
          // columnar side table — join columns first, then the new
          // variables' columns — indexed on the join columns; every batch
          // row probes the index.
          ScanPattern pattern(l.args.size());
          for (const auto& [i, c] : shape.const_checks) pattern[i] = c;
          size_t njoin = join_vars.size();
          ColumnTable ext(njoin + new_vars.size());
          for (size_t i = 0; i < new_vars.size(); ++i) {
            side_col_of_var[new_vars[i]] = static_cast<int>(njoin + i);
          }
          if (slot != nullptr) ++slot->scans;
          DELTAMON_RETURN_IF_ERROR(ScanRelation(
              l.relation, l.state, pattern, [&](const Tuple& t) {
                for (const auto& [i, j] : shape.repeat_checks) {
                  if (!(t[i] == t[j])) return true;
                }
                for (size_t c = 0; c < njoin; ++c) {
                  ext.AppendCell(c, t[shape.first_pos[join_vars[c]]]);
                }
                for (size_t c = 0; c < new_vars.size(); ++c) {
                  ext.AppendCell(njoin + c,
                                 t[shape.first_pos[new_vars[c]]]);
                }
                ext.FinishRow();
                return true;
              }));
          std::vector<size_t> ext_key_cols(njoin);
          for (size_t c = 0; c < njoin; ++c) ext_key_cols[c] = c;
          ColumnTable::HashIndex idx = ext.BuildIndex(ext_key_cols);
          for (size_t row = 0; row < rows; ++row) {
            size_t h = batch.table.KeyHash(row, batch_key_cols);
            for (uint32_t er = idx.First(h);
                 er != ColumnTable::HashIndex::kNoRow; er = idx.Next(er)) {
              if (slot != nullptr) ++slot->bindings_tried;
              if (!ext.KeyEquals(er, ext_key_cols, batch.table, row,
                                 batch_key_cols)) {
                continue;
              }
              copier.CopyThrough(batch, next, row);
              for (const auto& [dst, var] : copier.fresh) {
                next.table.AppendCellFrom(dst, ext, side_col_of_var[var],
                                          er);
              }
              next.table.FinishRow();
            }
          }
          if (slot != nullptr) {
            slot->access = (k == semijoin_step) ? "semijoin-filtered"
                                                : "hash-join/build";
          }
        } else {
          // PROBE: group the batch by its distinct join keys; each group
          // issues one ScanRelation with the key (and constants) pushed
          // down, collects the matches' new-variable columns, then
          // cross-emits members × matches.
          for (size_t i = 0; i < new_vars.size(); ++i) {
            side_col_of_var[new_vars[i]] = static_cast<int>(i);
          }
          ColumnTable::Grouping g = batch.table.GroupByKey(batch_key_cols);
          for (size_t gi = 0; gi < g.reps.size(); ++gi) {
            if (slot != nullptr) ++(any_pattern ? slot->probes : slot->scans);
            ColumnTable cand(new_vars.size());
            DELTAMON_RETURN_IF_ERROR(ScanRelation(
                l.relation, l.state, fill_pattern(g.reps[gi]),
                [&](const Tuple& t) {
                  if (slot != nullptr) ++slot->bindings_tried;
                  // Bound-variable repeats are fully covered by the
                  // pattern; unbound repeats still need the cross-check.
                  for (const auto& [i, j] : shape.repeat_checks) {
                    if (!(t[i] == t[j])) return true;
                  }
                  for (size_t c = 0; c < new_vars.size(); ++c) {
                    cand.AppendCell(c, t[shape.first_pos[new_vars[c]]]);
                  }
                  cand.FinishRow();
                  return true;
                }));
            if (cand.empty()) continue;
            for (uint32_t row : g.rows[gi]) {
              for (size_t cr = 0; cr < cand.num_rows(); ++cr) {
                copier.CopyThrough(batch, next, row);
                for (const auto& [dst, var] : copier.fresh) {
                  next.table.AppendCellFrom(dst, cand,
                                            side_col_of_var[var], cr);
                }
                next.table.FinishRow();
              }
            }
          }
          if (slot != nullptr) {
            slot->access = (k == semijoin_step) ? "semijoin-filtered"
                                                : "hash-join/probe";
          }
        }
        stats_.bindings_produced +=
            next.table.num_rows() * new_vars.size();
        break;
      }
    }
    batch = std::move(next);
    if (slot != nullptr) slot->rows_out += batch.table.num_rows();
  }

  // Head projection into the (deduplicating) result set; with derivations
  // requested, the generator's args rebuild each row's Δ-row alongside.
  auto compile = [&batch](const std::vector<Term>& terms) {
    std::vector<Operand> ops;
    ops.reserve(terms.size());
    for (const Term& t : terms) ops.push_back(CompileOperand(t, batch));
    return ops;
  };
  auto project = [&batch](const std::vector<Operand>& ops, size_t row) {
    std::vector<Value> vals;
    vals.reserve(ops.size());
    for (const Operand& o : ops) vals.push_back(OperandValue(o, batch, row));
    return Tuple(std::move(vals));
  };
  const std::vector<Operand> head_ops = compile(clause.head_args);
  const std::vector<Operand> delta_ops =
      derivations != nullptr ? compile(body[order[0]].args)
                             : std::vector<Operand>{};
  for (size_t row = 0; row < batch.table.num_rows(); ++row) {
    Tuple head = project(head_ops, row);
    if (derivations != nullptr) {
      derivations->push_back(Derivation{head, project(delta_ops, row)});
    }
    out->insert(std::move(head));
  }
  return true;
}

}  // namespace deltamon::objectlog
