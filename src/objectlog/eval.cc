#include "objectlog/eval.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "obs/metrics.h"
#include "obs/span.h"

/// Per-literal profiler hook, expanded inside EvalBodyImpl<kProfiled>:
/// `slot` is the current literal's profile slot. The whole statement sits
/// behind `if constexpr (kProfiled)`, so the detached instantiation — the
/// one every ordinary transaction runs — carries zero residue; under
/// DELTAMON_OBS=OFF it compiles to nothing in both instantiations.
#if DELTAMON_OBS_ENABLED
#define DELTAMON_PROF(stmt)    \
  do {                         \
    if constexpr (kProfiled) { \
      if (slot != nullptr) {   \
        stmt;                  \
      }                        \
    }                          \
  } while (false)
#else
#define DELTAMON_PROF(stmt) \
  do {                      \
  } while (false)
#endif

namespace deltamon::objectlog {

TupleSet* EvalCache::Find(RelationId rel, EvalState state) {
  auto it = extents_.find(Key(rel, state));
  return it == extents_.end() ? nullptr : &it->second;
}

TupleSet* EvalCache::Insert(RelationId rel, EvalState state, TupleSet extent) {
  auto [it, _] = extents_.insert_or_assign(Key(rel, state), std::move(extent));
  return &it->second;
}

BaseRelation* EvalCache::FindIndexed(RelationId rel, EvalState state) {
  auto it = indexed_.find(Key(rel, state));
  if (it == indexed_.end()) return nullptr;
  ++indexed_reuses_;
  return it->second.extent.get();
}

BaseRelation* EvalCache::InsertIndexed(RelationId rel, EvalState state,
                                       std::unique_ptr<BaseRelation> extent,
                                       bool retainable) {
  ++indexed_inserts_;
  auto [it, _] = indexed_.insert_or_assign(
      Key(rel, state), IndexedEntry{std::move(extent), retainable});
  return it->second.extent.get();
}

void EvalCache::BeginWave(
    const std::function<bool(RelationId, EvalState)>& drop) {
  extents_.clear();
  for (auto it = indexed_.begin(); it != indexed_.end();) {
    auto rel = static_cast<RelationId>(it->first >> 32);
    auto state = static_cast<EvalState>(it->first & 0xffffffffu);
    if (!it->second.retainable || drop(rel, state)) {
      it = indexed_.erase(it);
    } else {
      ++it;
    }
  }
}

Evaluator::Evaluator(const Database& db, const DerivedRegistry& registry,
                     StateContext ctx, EvalCache* cache)
    : db_(db),
      registry_(registry),
      ctx_(ctx),
      cache_(cache != nullptr ? cache : &own_cache_) {}

Evaluator::~Evaluator() {
  DELTAMON_OBS_COUNT("eval.clause_evals", stats_.clause_evals);
  DELTAMON_OBS_COUNT("eval.literal_probes", stats_.literal_probes);
  DELTAMON_OBS_COUNT("eval.tuples_examined", stats_.tuples_examined);
  DELTAMON_OBS_COUNT("eval.bindings_produced", stats_.bindings_produced);
}

Result<Value> Evaluator::TermValue(const Term& term, const Env& env) const {
  if (term.is_const()) return term.constant;
  if (term.var >= 0 && static_cast<size_t>(term.var) < env.size() &&
      env[term.var].has_value()) {
    return *env[term.var];
  }
  return Status::Internal("unbound variable V" + std::to_string(term.var) +
                          " evaluated too early");
}

std::vector<size_t> Evaluator::OrderBody(const std::vector<Literal>& body,
                                         int num_vars) {
  return OrderBody(body, num_vars, std::vector<bool>(std::max(num_vars, 0)));
}

std::vector<size_t> Evaluator::OrderBody(
    const std::vector<Literal>& body, int num_vars,
    const std::vector<bool>& initial_bound) {
  return OrderBody(body, num_vars, initial_bound, nullptr);
}

std::vector<size_t> Evaluator::OrderBody(
    const std::vector<Literal>& body, int num_vars,
    const std::vector<bool>& initial_bound, const StatsStore* stats) {
  // Until the first ANALYZE records something, the store answers nullopt
  // for every key; skip the per-literal mutexed lookups entirely.
  if (stats != nullptr && stats->empty()) stats = nullptr;
  std::vector<bool> bound = initial_bound;
  bound.resize(static_cast<size_t>(std::max(num_vars, 0)), false);
  std::vector<bool> placed(body.size(), false);
  std::vector<size_t> order;
  order.reserve(body.size());

  auto term_bound = [&bound](const Term& t) {
    return t.is_const() || (t.var >= 0 && bound[t.var]);
  };
  auto bind_vars = [&bound](const Literal& l) {
    for (const Term& t : l.args) {
      if (t.is_var()) bound[t.var] = true;
    }
  };

  // Δ-role literals are the wave-front generators of a partial
  // differential: always execute them first (the optimizer "assumes few
  // changes to a single influent", paper §1).
  for (size_t i = 0; i < body.size(); ++i) {
    if (body[i].kind == Literal::Kind::kRelation &&
        body[i].role != RelationRole::kExtent) {
      order.push_back(i);
      placed[i] = true;
      bind_vars(body[i]);
    }
  }

  while (order.size() < body.size()) {
    constexpr int kNotEvaluable = std::numeric_limits<int>::min();
    int best = -1;
    int best_score = kNotEvaluable;
    for (size_t i = 0; i < body.size(); ++i) {
      if (placed[i]) continue;
      const Literal& l = body[i];
      int score = kNotEvaluable;
      switch (l.kind) {
        case Literal::Kind::kCompare:
          if (term_bound(l.args[0]) && term_bound(l.args[1])) {
            score = 100;  // pure filter
          } else if (l.cmp == CompareOp::kEq &&
                     (term_bound(l.args[0]) || term_bound(l.args[1]))) {
            score = 90;  // equality binder
          }
          break;
        case Literal::Kind::kArith:
          if (term_bound(l.args[1]) && term_bound(l.args[2])) score = 95;
          break;
        case Literal::Kind::kRelation: {
          size_t nbound = 0;
          for (const Term& t : l.args) {
            if (term_bound(t)) ++nbound;
          }
          if (l.negated) {
            // Evaluable once every shared variable is bound; variables
            // occurring only in this literal are wildcards (validated by
            // ValidateClause).
            bool ready = true;
            for (const Term& t : l.args) {
              if (term_bound(t)) continue;
              int uses = 0;
              for (const Literal& other : body) {
                for (const Term& ot : other.args) {
                  if (ot.is_var() && ot.var == t.var) ++uses;
                }
              }
              if (uses > 1) {
                ready = false;
                break;
              }
            }
            if (ready) score = 85;  // absence filter
          } else if (nbound == l.args.size()) {
            score = 80;  // fully bound probe
          } else if (nbound > 0) {
            score = 40 + static_cast<int>(nbound);  // indexed probe
            if (stats != nullptr) {
              // Observed selectivity beats raw boundness within the probe
              // band: a probe that proved to pass 1-in-2^k candidates
              // scores 40+k, clamped so it stays below fully-bound probes.
              std::optional<double> sel = stats->Selectivity(
                  l.relation, static_cast<int>(l.role),
                  static_cast<int>(nbound));
              if (sel.has_value()) {
                double s = std::clamp(*sel, 1e-12, 1.0);
                int boost = static_cast<int>(std::lround(-std::log2(s)));
                score = 40 + std::clamp(boost, 0, 39);
              }
            }
          } else {
            score = 0;  // full scan, last resort
          }
          break;
        }
      }
      if (score > best_score) {
        best_score = score;
        best = static_cast<int>(i);
      }
    }
    if (best < 0 || best_score == kNotEvaluable) {
      // Unsafe clause (should have been rejected by ValidateClause); fall
      // back to textual order for the remainder.
      for (size_t i = 0; i < body.size(); ++i) {
        if (!placed[i]) {
          order.push_back(i);
          placed[i] = true;
        }
      }
      break;
    }
    placed[best] = true;
    order.push_back(best);
    const Literal& l = body[best];
    if (l.kind == Literal::Kind::kRelation && !l.negated) {
      bind_vars(l);
    } else if (l.kind == Literal::Kind::kArith) {
      if (l.args[0].is_var()) bound[l.args[0].var] = true;
    } else if (l.kind == Literal::Kind::kCompare && l.cmp == CompareOp::kEq) {
      bind_vars(l);
    }
  }
  return order;
}

double Evaluator::ExtentEstimate(RelationId rel) const {
  if (const BaseRelation* base = db_.catalog().GetBaseRelation(rel)) {
    return static_cast<double>(base->size());
  }
  if (const BaseRelation* view = ctx_.ViewFor(rel)) {
    return static_cast<double>(view->size());
  }
  // Derived relation whose extent would need materializing to count: a
  // small nominal size keeps the chained estimates finite and comparable.
  return 10.0;
}

obs::ClauseProfile* Evaluator::BeginClauseProfile(const Clause& clause) {
#if DELTAMON_OBS_ENABLED
  if (profiler_ == nullptr) return nullptr;
  const Catalog& catalog = db_.catalog();
  const std::string& label = clause.profile_label.empty()
                                 ? catalog.RelationName(clause.head_relation)
                                 : clause.profile_label;
  obs::ClauseProfile* cp = profiler_->BeginClause(label);
  ++cp->invocations;
  if (!cp->slots.empty()) return cp;

  // First sight: fill the static slot metadata from the canonical
  // (no-prebound) order. Every worker derives the same values — the order
  // is a pure function of the clause and the stats fixed for this wave —
  // so the serial merge can keep either copy.
  cp->clause_text = clause.ToString(catalog);
  cp->slots.resize(clause.body.size());
  size_t nvars = static_cast<size_t>(std::max(clause.num_vars, 0));
  std::vector<size_t> order = OrderBody(clause.body, clause.num_vars,
                                        std::vector<bool>(nvars),
                                        &catalog.stats());
  std::vector<bool> bound(nvars, false);
  auto term_bound = [&bound](const Term& t) {
    return t.is_const() || (t.var >= 0 && bound[t.var]);
  };
  double est = 1.0;  // estimated bindings flowing into the next step
  for (size_t rank = 0; rank < order.size(); ++rank) {
    const Literal& l = clause.body[order[rank]];
    obs::LiteralProfile& slot = cp->slots[order[rank]];
    slot.display_rank = static_cast<int>(rank);
    slot.text = l.ToString(catalog, clause.var_names);
    switch (l.kind) {
      case Literal::Kind::kCompare: {
        bool filter = term_bound(l.args[0]) && term_bound(l.args[1]);
        slot.access = "compare";
        if (filter) {
          est *= 0.5;  // the classical half-pass guess for a filter
        } else if (l.cmp == CompareOp::kEq) {
          for (const Term& t : l.args) {
            if (t.is_var()) bound[t.var] = true;  // equality binder
          }
        }
        break;
      }
      case Literal::Kind::kArith:
        slot.access = "arith";
        if (l.args[0].is_var()) bound[l.args[0].var] = true;
        break;
      case Literal::Kind::kRelation: {
        size_t nbound = 0;
        for (const Term& t : l.args) {
          if (term_bound(t)) ++nbound;
        }
        slot.relation = l.relation;
        slot.role = static_cast<int>(l.role);
        slot.nbound = static_cast<int>(nbound);
        if (l.role != RelationRole::kExtent) {
          // Δ-side generator: the optimizer assumes few changes (§1), so
          // the chained estimate stays at ~1 row per invocation.
          slot.access =
              l.role == RelationRole::kDeltaPlus ? "delta+" : "delta-";
          for (const Term& t : l.args) {
            if (t.is_var()) bound[t.var] = true;
          }
        } else if (l.negated) {
          slot.access = "anti";
          est *= 0.5;  // absence check: same half-pass filter guess
        } else {
          double extent = ExtentEstimate(l.relation);
          std::optional<double> observed = catalog.stats().Selectivity(
              l.relation, static_cast<int>(l.role),
              static_cast<int>(nbound));
          if (nbound == 0) {
            slot.access = "scan";
            est *= observed.has_value() ? extent * (*observed) : extent;
          } else {
            // Default per-bound-position selectivity 0.1 when nothing has
            // been observed yet.
            double sel = observed.value_or(
                std::pow(0.1, static_cast<double>(nbound)));
            double fanout = extent * sel;
            if (nbound == l.args.size()) {
              slot.access = "probe/all";
              fanout = std::min(fanout, 1.0);
            } else {
              slot.access = "probe/" + std::to_string(nbound);
            }
            est *= fanout;
          }
          for (const Term& t : l.args) {
            if (t.is_var()) bound[t.var] = true;
          }
        }
        break;
      }
    }
    slot.est_rows = est;  // estimated rows leaving this step per invocation
  }
  return cp;
#else
  (void)clause;
  return nullptr;
#endif
}

DeltaView Evaluator::ReadView(RelationId rel, EvalState state,
                              bool stored) const {
  if (state == EvalState::kOld) return DeltaView::Rollback(ctx_.DeltaFor(rel));
  // Materialized views are propagation-internal and never transactional.
  if (stored && ctx_.txn != nullptr) return ctx_.txn->View(rel);
  return DeltaView();
}

Status Evaluator::ScanRelation(RelationId rel, EvalState state,
                               const ScanPattern& pattern,
                               const std::function<bool(const Tuple&)>& fn) {
  ++stats_.literal_probes;
  auto examine = [this, &fn](const Tuple& t) {
    ++stats_.tuples_examined;
    return fn(t);
  };
  const BaseRelation* stored = db_.catalog().GetBaseRelation(rel);
  const BaseRelation* base = stored;
  if (base == nullptr) base = ctx_.ViewFor(rel);  // materialized view
  if (base != nullptr) {
    // A transactional read joins the snapshot's read footprint.
    if (state == EvalState::kNew && stored != nullptr && ctx_.txn != nullptr) {
      ctx_.txn->RecordScan(rel, pattern);
    }
    ReadView(rel, state, stored != nullptr)
        .Scan(
            pattern,
            [base, &pattern](const auto& visit) { base->Scan(pattern, visit); },
            examine);
    return Status::OK();
  }

  // Foreign functions (paper §3, [15]): extent from the registered C++
  // implementation, which may ignore the pattern; OLD state by rolling back
  // the user-injected Δ-set, exactly as for stored relations.
  if (const ForeignImpl* impl = registry_.GetForeign(rel)) {
    return ReadView(rel, state, /*stored=*/false)
        .Scan(
            pattern,
            [impl, &pattern](const auto& visit) {
              return (*impl)(pattern, [&pattern, &visit](const Tuple& t) {
                return !TupleMatchesPattern(t, pattern) || visit(t);
              });
            },
            examine);
  }

  // Aggregate views (§8 extension).
  if (const AggregateDef* agg = registry_.GetAggregate(rel)) {
    return ScanAggregate(rel, *agg, state, pattern, fn);
  }
  // Derived relation.
  if (!registry_.IsDefined(rel)) {
    return Status::NotFound("relation id " + std::to_string(rel) +
                            " ('" + db_.catalog().RelationName(rel) +
                            "') has neither storage nor clauses");
  }
  // Recursive relations (linear recursion extension): always evaluated by
  // fixpoint materialization — the probe path would recurse through the
  // self-reference without a growing extent to terminate on.
  if (registry_.IsRecursive(rel)) {
    DELTAMON_ASSIGN_OR_RETURN(const BaseRelation* extent,
                              FixpointMaterialize(rel, state));
    extent->Scan(pattern, examine);
    return Status::OK();
  }

  // An extent materialized earlier in this wave is cheapest. Otherwise,
  // with bound pattern positions, push the bindings into the definition
  // instead of materializing the whole view — a point/range query over the
  // (indexed) base relations. Without this, probing a view once per outer
  // tuple would cost O(|view|) each time.
  TupleSet* extent = cache_->Find(rel, state);
  TupleSet probed;  // dedup across clauses and witnesses
  if (extent == nullptr &&
      std::any_of(pattern.begin(), pattern.end(),
                  [](const auto& p) { return p.has_value(); })) {
    for (const Clause& clause : *registry_.GetClauses(rel)) {
      // Unbound-head positions of this clause could still mismatch a
      // repeated pattern value; the final filter below handles that.
      DELTAMON_RETURN_IF_ERROR(RunClause(
          clause, pattern, Env(clause.num_vars), state,
          [&](const Env& e) -> Status {
            Tuple t;
            DELTAMON_RETURN_IF_ERROR(Project(clause.head_args, e, &t));
            probed.insert(std::move(t));
            return Status::OK();
          }));
    }
    extent = &probed;
  } else if (extent == nullptr) {
    TupleSet materialized;
    DELTAMON_RETURN_IF_ERROR(Evaluate(rel, state, &materialized));
    extent = cache_->Insert(rel, state, std::move(materialized));
  }
  for (const Tuple& t : *extent) {
    if (TupleMatchesPattern(t, pattern) && !examine(t)) break;
  }
  return Status::OK();
}

namespace {

#if DELTAMON_OBS_ENABLED
/// Stand-in for obs::LiteralSlotTimer in the unprofiled EvalBodyImpl
/// instantiation: same shape, no members, no clock reads.
struct NoopSlotTimer {
  explicit NoopSlotTimer(obs::LiteralProfile*) {}
};
#endif  // DELTAMON_OBS_ENABLED

}  // namespace

Status Evaluator::EvalBody(const Clause& clause,
                           const std::vector<size_t>& order, size_t step,
                           Env& env, std::optional<EvalState> state_override,
                           const std::function<Status(const Env&)>& emit,
                           bool* stop, obs::ClauseProfile* prof) {
#if DELTAMON_OBS_ENABLED
  if (prof != nullptr) {
    return EvalBodyImpl<true>(clause, order, step, env, state_override, emit,
                              stop, prof);
  }
#endif
  return EvalBodyImpl<false>(clause, order, step, env, state_override, emit,
                             stop, prof);
}

template <bool kProfiled>
Status Evaluator::EvalBodyImpl(const Clause& clause,
                               const std::vector<size_t>& order, size_t step,
                               Env& env,
                               std::optional<EvalState> state_override,
                               const std::function<Status(const Env&)>& emit,
                               bool* stop, [[maybe_unused]] obs::ClauseProfile* prof) {
  if (*stop) return Status::OK();
  if (step == order.size()) return emit(env);
  const Literal& l = clause.body[order[step]];
#if DELTAMON_OBS_ENABLED
  [[maybe_unused]] obs::LiteralProfile* slot = nullptr;
  if constexpr (kProfiled) slot = &prof->slots[order[step]];
  std::conditional_t<kProfiled, obs::LiteralSlotTimer, NoopSlotTimer>
      slot_timer(slot);
  DELTAMON_PROF(++slot->rows_in);
#endif

  switch (l.kind) {
    case Literal::Kind::kCompare: {
      bool b0 = l.args[0].is_const() || env[l.args[0].var].has_value();
      bool b1 = l.args[1].is_const() || env[l.args[1].var].has_value();
      if (l.cmp == CompareOp::kEq && b0 != b1) {
        // Equality binder: bind the unbound side.
        const Term& src = b0 ? l.args[0] : l.args[1];
        const Term& dst = b0 ? l.args[1] : l.args[0];
        DELTAMON_ASSIGN_OR_RETURN(Value v, TermValue(src, env));
        env[dst.var] = std::move(v);
        DELTAMON_PROF(++slot->bindings_tried; ++slot->rows_out);
        Status s = EvalBodyImpl<kProfiled>(clause, order, step + 1, env, state_override, emit,
                            stop, prof);
        env[dst.var].reset();
        return s;
      }
      DELTAMON_ASSIGN_OR_RETURN(Value a, TermValue(l.args[0], env));
      DELTAMON_ASSIGN_OR_RETURN(Value b, TermValue(l.args[1], env));
      DELTAMON_PROF(++slot->bindings_tried);
      if (!EvalCompare(l.cmp, a, b)) return Status::OK();
      DELTAMON_PROF(++slot->rows_out);
      return EvalBodyImpl<kProfiled>(clause, order, step + 1, env, state_override, emit,
                      stop, prof);
    }

    case Literal::Kind::kArith: {
      DELTAMON_ASSIGN_OR_RETURN(Value a, TermValue(l.args[1], env));
      DELTAMON_ASSIGN_OR_RETURN(Value b, TermValue(l.args[2], env));
      DELTAMON_PROF(++slot->bindings_tried);
      Result<Value> r = [&]() {
        switch (l.arith) {
          case ArithOp::kAdd:
            return Add(a, b);
          case ArithOp::kSub:
            return Subtract(a, b);
          case ArithOp::kMul:
            return Multiply(a, b);
          case ArithOp::kDiv:
            return Divide(a, b);
        }
        return Result<Value>(Status::Internal("bad arith op"));
      }();
      // Arithmetic failure (division by zero, overflow, type error) makes
      // the branch underivable rather than aborting the query.
      if (!r.ok()) return Status::OK();
      const Term& out = l.args[0];
      if (out.is_const() || env[out.var].has_value()) {
        DELTAMON_ASSIGN_OR_RETURN(Value cur, TermValue(out, env));
        if (cur.Compare(*r) != 0) return Status::OK();
        DELTAMON_PROF(++slot->rows_out);
        return EvalBodyImpl<kProfiled>(clause, order, step + 1, env, state_override, emit,
                        stop, prof);
      }
      env[out.var] = std::move(*r);
      DELTAMON_PROF(++slot->rows_out);
      Status s = EvalBodyImpl<kProfiled>(clause, order, step + 1, env, state_override, emit,
                          stop, prof);
      env[out.var].reset();
      return s;
    }

    case Literal::Kind::kRelation: {
      EvalState state = state_override.value_or(l.state);

      // Δ-role literal: generate from one side of the influent's Δ-set.
      if (l.role != RelationRole::kExtent) {
        const DeltaSet* delta = ctx_.DeltaFor(l.relation);
        if (delta == nullptr) return Status::OK();
        const TupleSet& side = l.role == RelationRole::kDeltaPlus
                                   ? delta->plus()
                                   : delta->minus();
        Status status = Status::OK();
        for (const Tuple& t : side) {
          ++stats_.tuples_examined;
          DELTAMON_PROF(++slot->bindings_tried);
          // Unify args against t.
          std::vector<int> bound_here;
          bool match = true;
          for (size_t i = 0; i < l.args.size() && match; ++i) {
            const Term& a = l.args[i];
            if (a.is_const()) {
              match = a.constant == t[i];
            } else if (env[a.var].has_value()) {
              match = *env[a.var] == t[i];
            } else {
              env[a.var] = t[i];
              bound_here.push_back(a.var);
            }
          }
          if (match) {
            stats_.bindings_produced += bound_here.size();
            DELTAMON_PROF(++slot->rows_out);
            status =
                EvalBodyImpl<kProfiled>(clause, order, step + 1, env, state_override, emit,
                         stop, prof);
          }
          for (int v : bound_here) env[v].reset();
          if (!status.ok() || *stop) break;
        }
        return status;
      }

      // Negated extent literal: negation-as-absence. Bound positions form
      // the match pattern; unbound (wildcard) positions match anything.
      if (l.negated) {
        ScanPattern pattern(l.args.size());
        [[maybe_unused]] bool has_bound = false;
        for (size_t i = 0; i < l.args.size(); ++i) {
          if (l.args[i].is_const()) {
            pattern[i] = l.args[i].constant;
          } else if (env[l.args[i].var].has_value()) {
            pattern[i] = *env[l.args[i].var];
          }
          has_bound = has_bound || pattern[i].has_value();
        }
        DELTAMON_PROF(++slot->bindings_tried;
                      ++(has_bound ? slot->probes : slot->scans));
        bool exists = false;
        DELTAMON_RETURN_IF_ERROR(
            ScanRelation(l.relation, state, pattern, [&exists](const Tuple&) {
              exists = true;
              return false;  // stop at the first witness
            }));
        if (exists) return Status::OK();
        DELTAMON_PROF(++slot->rows_out);
        return EvalBodyImpl<kProfiled>(clause, order, step + 1, env, state_override, emit,
                        stop, prof);
      }

      // Positive extent literal: scan with the bound positions as pattern.
      ScanPattern pattern(l.args.size());
      [[maybe_unused]] bool has_bound = false;
      for (size_t i = 0; i < l.args.size(); ++i) {
        if (l.args[i].is_const()) {
          pattern[i] = l.args[i].constant;
        } else if (env[l.args[i].var].has_value()) {
          pattern[i] = *env[l.args[i].var];
        }
        has_bound = has_bound || pattern[i].has_value();
      }
      DELTAMON_PROF(++(has_bound ? slot->probes : slot->scans));
      Status status = Status::OK();
      DELTAMON_RETURN_IF_ERROR(ScanRelation(
          l.relation, state, pattern, [&](const Tuple& t) {
            DELTAMON_PROF(++slot->bindings_tried);
            std::vector<int> bound_here;
            bool match = true;
            for (size_t i = 0; i < l.args.size() && match; ++i) {
              const Term& a = l.args[i];
              if (a.is_const()) continue;  // filtered by the pattern
              if (env[a.var].has_value()) {
                // Either filtered by the pattern, or a repeated variable
                // bound earlier within this same literal (q(X, X)).
                match = *env[a.var] == t[i];
              } else {
                env[a.var] = t[i];
                bound_here.push_back(a.var);
              }
            }
            if (match) {
              stats_.bindings_produced += bound_here.size();
              DELTAMON_PROF(++slot->rows_out);
              status = EvalBodyImpl<kProfiled>(clause, order, step + 1, env, state_override,
                                emit, stop, prof);
            }
            for (int v : bound_here) env[v].reset();
            return status.ok() && !*stop;
          }));
      return status;
    }
  }
  return Status::Internal("unknown literal kind");
}

Status Evaluator::EvaluateClause(const Clause& clause, TupleSet* out,
                                 Derivations* derivations,
                                 const KernelPlan* plan) {
  // Transactional reads must flow through the snapshot's footprint
  // recording one probe at a time; the batch path stays out of the way.
  if (kernels_ && ctx_.txn == nullptr) {
    const bool with_derivations = derivations != nullptr;
    KernelPlan adhoc;
    if (plan == nullptr ||
        !plan->FreshFor(db_.catalog().stats(), with_derivations)) {
      adhoc = KernelPlan::Compile(clause, registry_, db_.catalog(),
                                  with_derivations);
      plan = &adhoc;
    }
    if (plan->eligible()) {
      return RunKernelPlan(*plan, clause, out, derivations);
    }
  }
  return EvaluateClauseWithBindings(clause, {}, out, derivations);
}

Status Evaluator::EvaluateClauseWithBindings(
    const Clause& clause, const std::vector<std::pair<int, Value>>& bindings,
    TupleSet* out, Derivations* derivations) {
  // The Δ-role generator whose bound row each derivation reports.
  const Literal* generator = nullptr;
  if (derivations != nullptr) {
    size_t ndelta = 0;
    for (const Literal& l : clause.body) {
      if (l.kind == Literal::Kind::kRelation &&
          l.role != RelationRole::kExtent) {
        generator = &l;
        ++ndelta;
      }
    }
    if (ndelta != 1) {
      return Status::InvalidArgument(
          "derivations need exactly one Δ-role literal");
    }
  }
  DELTAMON_OBS_SPAN(clause_span, "eval", "clause");
  if (clause_span.active()) {
    clause_span.SetName("clause:" +
                        db_.catalog().RelationName(clause.head_relation));
    clause_span.AddField("relation",
                         static_cast<int64_t>(clause.head_relation));
    clause_span.AddField("literals", static_cast<int64_t>(clause.body.size()));
    clause_span.AddField("bindings", static_cast<int64_t>(bindings.size()));
  }
  Env env(clause.num_vars);
  for (const auto& [var, value] : bindings) {
    if (var < 0 || var >= clause.num_vars) {
      return Status::InvalidArgument("binding for unknown variable");
    }
    env[var] = value;
  }
  return RunClause(
      clause, ScanPattern{}, std::move(env), EvalState::kNew,
      [&](const Env& e) -> Status {
        Tuple head;
        DELTAMON_RETURN_IF_ERROR(Project(clause.head_args, e, &head));
        if (generator != nullptr) {
          // Every term is a variable or a constant, and the generator's
          // variables are bound by now: its args rebuild the Δ-row exactly.
          Tuple row;
          DELTAMON_RETURN_IF_ERROR(Project(generator->args, e, &row));
          derivations->push_back(Derivation{head, std::move(row)});
        }
        out->insert(std::move(head));
        return Status::OK();
      });
}

Status Evaluator::RunClause(const Clause& clause,
                            const ScanPattern& head_pattern, Env env,
                            EvalState state,
                            const std::function<Status(const Env&)>& emit,
                            bool* stop) {
  ++stats_.clause_evals;
  bool never = false;
  if (stop == nullptr) stop = &never;
  for (size_t i = 0; i < head_pattern.size() && i < clause.head_args.size();
       ++i) {
    if (!head_pattern[i].has_value()) continue;
    const Value& want = *head_pattern[i];
    const Term& h = clause.head_args[i];
    if (h.is_const()) {
      if (!(h.constant == want)) return Status::OK();
    } else if (env[h.var].has_value()) {
      if (!(*env[h.var] == want)) return Status::OK();
    } else {
      env[h.var] = want;
    }
  }
  std::vector<bool> prebound(env.size());
  for (size_t v = 0; v < env.size(); ++v) prebound[v] = env[v].has_value();
  std::vector<size_t> order = OrderBody(clause.body, clause.num_vars, prebound,
                                        &db_.catalog().stats());
  std::optional<EvalState> state_override;
  if (state == EvalState::kOld) state_override = EvalState::kOld;
  return EvalBody(clause, order, 0, env, state_override, emit, stop,
                  BeginClauseProfile(clause));
}

Status Evaluator::Project(const std::vector<Term>& terms, const Env& env,
                          Tuple* out) const {
  std::vector<Value> vals;
  vals.reserve(terms.size());
  for (const Term& t : terms) {
    DELTAMON_ASSIGN_OR_RETURN(Value v, TermValue(t, env));
    vals.push_back(std::move(v));
  }
  *out = Tuple(std::move(vals));
  return Status::OK();
}

Status Evaluator::Evaluate(RelationId rel, EvalState state, TupleSet* out) {
  if (db_.catalog().GetBaseRelation(rel) != nullptr ||
      ctx_.ViewFor(rel) != nullptr ||
      registry_.GetAggregate(rel) != nullptr ||
      registry_.GetForeign(rel) != nullptr ||
      registry_.IsRecursive(rel)) {
    return ScanRelation(rel, state, ScanPattern{}, [out](const Tuple& t) {
      out->insert(t);
      return true;
    });
  }
  const std::vector<Clause>* clauses = registry_.GetClauses(rel);
  if (clauses == nullptr) {
    return Status::NotFound("relation id " + std::to_string(rel) +
                            " has neither storage nor clauses");
  }
  for (const Clause& clause : *clauses) {
    DELTAMON_RETURN_IF_ERROR(RunClause(
        clause, ScanPattern{}, Env(clause.num_vars), state,
        [&](const Env& e) -> Status {
          Tuple t;
          DELTAMON_RETURN_IF_ERROR(Project(clause.head_args, e, &t));
          out->insert(std::move(t));
          return Status::OK();
        }));
  }
  return Status::OK();
}

Result<bool> Evaluator::Derivable(RelationId rel, EvalState state,
                                  const Tuple& t) {
  const BaseRelation* stored = db_.catalog().GetBaseRelation(rel);
  const BaseRelation* base = stored != nullptr ? stored : ctx_.ViewFor(rel);
  if (base != nullptr) {
    if (state == EvalState::kNew && stored != nullptr && ctx_.txn != nullptr) {
      ctx_.txn->RecordPointRead(rel, t);
    }
    return ReadView(rel, state, stored != nullptr)
        .Contains(t, [base](const Tuple& u) { return base->Contains(u); });
  }
  const ScanPattern pattern(t.values().begin(), t.values().end());
  if (registry_.GetAggregate(rel) != nullptr ||
      registry_.GetForeign(rel) != nullptr || registry_.IsRecursive(rel)) {
    bool found = false;
    DELTAMON_RETURN_IF_ERROR(
        ScanRelation(rel, state, pattern, [&found](const Tuple&) {
          found = true;
          return false;
        }));
    return found;
  }
  const std::vector<Clause>* clauses = registry_.GetClauses(rel);
  if (clauses == nullptr) {
    return Status::NotFound("relation id " + std::to_string(rel) +
                            " has neither storage nor clauses");
  }
  bool found = false;
  for (const Clause& clause : *clauses) {
    if (clause.head_args.size() != t.arity()) {
      return Status::InvalidArgument("point query arity mismatch");
    }
    // `found` doubles as the stop flag: the first witness answers.
    DELTAMON_RETURN_IF_ERROR(RunClause(
        clause, pattern, Env(clause.num_vars), state,
        [&found](const Env&) -> Status {
          found = true;
          return Status::OK();
        },
        &found));
    if (found) return true;
  }
  return false;
}

bool Evaluator::CacheRetainSafe(RelationId rel) const {
  // Transactional reads see the snapshot's private overlay — never shared.
  if (ctx_.txn != nullptr) return false;
  // An extent whose derivation read the node-local overlay Δ or the hidden
  // view would leak per-node state into a cache shared across waves (and,
  // via PropagationOptions::caches, across Propagate calls).
  const bool overlay_active =
      ctx_.overlay_delta != nullptr && ctx_.overlay_rel != kInvalidRelationId;
  auto shadowed = [&](RelationId r) {
    return (overlay_active && r == ctx_.overlay_rel) || r == ctx_.hidden_view;
  };
  const std::vector<RelationId>& reach = registry_.Reach(rel);
  return !shadowed(rel) && std::none_of(reach.begin(), reach.end(), shadowed);
}

Result<const BaseRelation*> Evaluator::FixpointMaterialize(RelationId rel,
                                                           EvalState state) {
  if (BaseRelation* cached = cache_->FindIndexed(rel, state)) return cached;
  const std::vector<Clause>* clauses = registry_.GetClauses(rel);
  if (clauses == nullptr) {
    return Status::NotFound("recursive relation id " + std::to_string(rel) +
                            " has no clauses");
  }
  const FunctionSignature* sig = db_.catalog().GetSignature(rel);
  if (sig == nullptr) {
    return Status::Internal("recursive relation without signature");
  }
  // Stratification: recursion through negation has no monotone fixpoint.
  for (const Clause& clause : *clauses) {
    for (const Literal& lit : clause.body) {
      if (lit.kind == Literal::Kind::kRelation && lit.negated &&
          (lit.relation == rel || registry_.IsRecursive(lit.relation))) {
        return Status::Unimplemented(
            "recursion through negation is not stratifiable");
      }
    }
  }
  // Seed an empty extent so self-references read the previous rounds'
  // tuples; grow until no clause derives anything new (naive iteration —
  // monotone, hence terminating on finite domains). The extent is indexed
  // so the self-probes inside each round stay cheap.
  BaseRelation* extent = cache_->InsertIndexed(
      rel, state,
      std::make_unique<BaseRelation>(rel, db_.catalog().RelationName(rel),
                                     sig->ToSchema()),
      CacheRetainSafe(rel));
  constexpr int kMaxRounds = 100000;
  for (int round = 0; round < kMaxRounds; ++round) {
    TupleSet fresh;
    for (const Clause& clause : *clauses) {
      DELTAMON_RETURN_IF_ERROR(RunClause(
          clause, ScanPattern{}, Env(clause.num_vars), state,
          [&](const Env& e) -> Status {
            Tuple t;
            DELTAMON_RETURN_IF_ERROR(Project(clause.head_args, e, &t));
            if (!extent->Contains(t)) fresh.insert(std::move(t));
            return Status::OK();
          }));
    }
    if (fresh.empty()) return extent;
    for (const Tuple& t : fresh) extent->Insert(t);
  }
  return Status::Internal("recursive fixpoint did not converge");
}

Status Evaluator::Probe(RelationId rel, EvalState state,
                        const ScanPattern& pattern, TupleSet* out) {
  return ScanRelation(rel, state, pattern, [out](const Tuple& t) {
    out->insert(t);
    return true;
  });
}

Status Evaluator::ScanAggregate(RelationId /*rel*/, const AggregateDef& def,
                                EvalState state, const ScanPattern& pattern,
                                const std::function<bool(const Tuple&)>& fn) {
  const FunctionSignature* src_sig = db_.catalog().GetSignature(def.source);
  if (src_sig == nullptr) {
    return Status::NotFound("aggregate source relation not found");
  }
  // Push bound group columns down into the source scan.
  ScanPattern source_pattern(src_sig->arity());
  for (size_t i = 0; i < def.group_by.size(); ++i) {
    if (i < pattern.size() && pattern[i].has_value()) {
      source_pattern[def.group_by[i]] = pattern[i];
    }
  }
  struct Accum {
    int64_t count = 0;
    Value value;  // running sum / min / max
  };
  std::unordered_map<Tuple, Accum, TupleHash> groups;
  Status fold_status = Status::OK();
  DELTAMON_RETURN_IF_ERROR(ScanRelation(
      def.source, state, source_pattern, [&](const Tuple& t) {
        Accum& acc = groups[t.Project(def.group_by)];
        ++acc.count;
        switch (def.func) {
          case AggregateDef::Func::kCount:
            break;
          case AggregateDef::Func::kSum: {
            if (acc.count == 1) {
              acc.value = t[def.value_column];
            } else {
              Result<Value> sum = Add(acc.value, t[def.value_column]);
              if (!sum.ok()) {
                fold_status = sum.status();
                return false;
              }
              acc.value = std::move(*sum);
            }
            break;
          }
          case AggregateDef::Func::kMin:
            if (acc.count == 1 ||
                t[def.value_column].Compare(acc.value) < 0) {
              acc.value = t[def.value_column];
            }
            break;
          case AggregateDef::Func::kMax:
            if (acc.count == 1 ||
                t[def.value_column].Compare(acc.value) > 0) {
              acc.value = t[def.value_column];
            }
            break;
        }
        return true;
      }));
  DELTAMON_RETURN_IF_ERROR(fold_status);

  // A global COUNT over an empty source is 0, not absent (so conditions
  // like "count = 0" are expressible).
  if (groups.empty() && def.func == AggregateDef::Func::kCount &&
      def.group_by.empty()) {
    groups.emplace(Tuple{}, Accum{});
  }

  for (const auto& [key, acc] : groups) {
    Tuple row = key.Concat(
        Tuple{def.func == AggregateDef::Func::kCount ? Value(acc.count)
                                                     : acc.value});
    if (!TupleMatchesPattern(row, pattern)) continue;
    ++stats_.tuples_examined;
    if (!fn(row)) break;
  }
  return Status::OK();
}

}  // namespace deltamon::objectlog
