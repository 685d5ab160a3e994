#include "rules/rule_manager.h"

#include <algorithm>
#include <thread>

#include "objectlog/eval.h"
#include "obs/metrics.h"
#include "obs/span.h"
#include "obs/trace.h"

namespace deltamon::rules {

using objectlog::Clause;
using objectlog::EvalState;
using objectlog::Literal;
using objectlog::Term;

namespace {

/// Replaces variable `var` with constant `value` everywhere in `clause`
/// (head tail and body). Used for parameterized activation.
void SubstituteVar(Clause& clause, int var, const Value& value) {
  auto subst = [var, &value](Term& t) {
    if (t.is_var() && t.var == var) t = Term::Const(value);
  };
  for (Term& t : clause.head_args) subst(t);
  for (Literal& l : clause.body) {
    for (Term& t : l.args) subst(t);
  }
}

/// Lineage trees are exported for at most this many instances per firing
/// (the FiringRecord's captured/total counts announce the truncation): a
/// bulk firing over thousands of instances must not render thousands of
/// trees into the bounded provenance ring.
constexpr size_t kMaxLineageInstances = 16;

/// A Δ-set as a wave-file fragment: rows sorted, so capture is
/// byte-deterministic at any thread count.
obs::WaveRelationDelta RenderWaveDelta(const std::string& name,
                                       const DeltaSet& delta) {
  obs::WaveRelationDelta out;
  out.relation = name;
  out.plus = SortedTuples(delta.plus());
  out.minus = SortedTuples(delta.minus());
  return out;
}

/// Non-empty Δ-sets of `deltas`, rendered and sorted by relation name.
std::vector<obs::WaveRelationDelta> RenderWaveDeltas(
    const std::unordered_map<RelationId, DeltaSet>& deltas,
    const Catalog& catalog) {
  std::vector<obs::WaveRelationDelta> out;
  for (const auto& [rel, delta] : deltas) {
    if (delta.empty()) continue;
    out.push_back(RenderWaveDelta(catalog.RelationName(rel), delta));
  }
  std::sort(out.begin(), out.end(),
            [](const obs::WaveRelationDelta& a,
               const obs::WaveRelationDelta& b) {
              return a.relation < b.relation;
            });
  return out;
}

}  // namespace

RuleManager::RuleManager(Database& db, objectlog::DerivedRegistry& registry)
    : db_(db), registry_(registry) {
  db_.SetCheckPhase([this](Database& d) { return CheckPhase(d); });
}

Result<RuleId> RuleManager::CreateRule(const std::string& name,
                                       RelationId condition, RuleAction action,
                                       RuleOptions options) {
  if (rules_by_name_.contains(name)) {
    return Status::AlreadyExists("rule '" + name + "' already exists");
  }
  if (!db_.catalog().IsDerived(condition) ||
      registry_.GetClauses(condition) == nullptr) {
    return Status::InvalidArgument(
        "rule condition must be a defined derived relation");
  }
  const FunctionSignature* sig = db_.catalog().GetSignature(condition);
  if (sig != nullptr && options.num_params > sig->arity()) {
    return Status::InvalidArgument("rule has more parameters than condition "
                                   "columns");
  }
  RuleId id = next_rule_id_++;
  rules_[id] = Rule{id, name, condition, std::move(action), options};
  rules_by_name_[name] = id;
  return id;
}

Result<RuleId> RuleManager::FindRule(const std::string& name) const {
  auto it = rules_by_name_.find(name);
  if (it == rules_by_name_.end()) {
    return Status::NotFound("rule '" + name + "' not found");
  }
  return it->second;
}

Result<std::vector<RelationId>> RuleManager::MonitoredConditions(
    RuleId rule) const {
  auto it = rules_.find(rule);
  if (it == rules_.end()) {
    return Status::NotFound("rule id " + std::to_string(rule) + " not found");
  }
  std::vector<RelationId> out;
  for (const Activation& act : activations_) {
    if (act.rule == rule) out.push_back(act.condition);
  }
  if (out.empty()) out.push_back(it->second.condition);
  return out;
}

Result<RelationId> RuleManager::SpecializeCondition(const Rule& rule,
                                                    const Tuple& params) {
  if (params.arity() != rule.options.num_params) {
    return Status::InvalidArgument(
        "rule '" + rule.name + "' expects " +
        std::to_string(rule.options.num_params) + " activation parameters, " +
        "got " + std::to_string(params.arity()));
  }
  if (params.empty()) return rule.condition;

  const std::vector<Clause>* clauses = registry_.GetClauses(rule.condition);
  const FunctionSignature* sig = db_.catalog().GetSignature(rule.condition);
  if (clauses == nullptr || sig == nullptr) {
    return Status::Internal("condition lost its definition");
  }
  // Specialized signature: the condition columns after the parameters.
  FunctionSignature spec_sig;
  std::vector<ColumnType> all_cols = sig->argument_types;
  all_cols.insert(all_cols.end(), sig->result_types.begin(),
                  sig->result_types.end());
  spec_sig.result_types.assign(all_cols.begin() +
                                   static_cast<long>(params.arity()),
                               all_cols.end());
  std::string spec_name = db_.catalog().RelationName(rule.condition) + "$" +
                          std::to_string(++specialization_counter_);
  DELTAMON_ASSIGN_OR_RETURN(
      RelationId spec,
      db_.catalog().CreateDerivedFunction(spec_name, std::move(spec_sig)));

  for (const Clause& original : *clauses) {
    Clause clause = original;
    clause.head_relation = spec;
    std::vector<Term> head = clause.head_args;
    clause.head_args.assign(head.begin() + static_cast<long>(params.arity()),
                            head.end());
    bool feasible = true;
    for (size_t i = 0; i < params.arity() && feasible; ++i) {
      const Term& h = head[i];
      if (h.is_var()) {
        SubstituteVar(clause, h.var, params[i]);
      } else {
        feasible = h.constant == params[i];
      }
    }
    if (!feasible) continue;  // constant head incompatible with params
    DELTAMON_RETURN_IF_ERROR(
        registry_.Define(spec, std::move(clause), db_.catalog()));
  }
  return spec;
}

Result<std::vector<RelationId>> RuleManager::Influents(
    RelationId cond) const {
  // The stored and foreign relations the condition reaches are the
  // influents whose updates must be monitored; every derived relation it
  // reaches needs a definition.
  const Catalog& catalog = db_.catalog();
  auto undefined = [&catalog](RelationId rel) {
    return Status::NotFound("derived relation '" + catalog.RelationName(rel) +
                            "' has no definition");
  };
  if (!registry_.IsDefined(cond)) return undefined(cond);
  std::vector<RelationId> influents;
  for (RelationId rel : registry_.Reach(cond)) {
    if (!catalog.IsDerived(rel)) {
      influents.push_back(rel);
    } else if (!registry_.IsDefined(rel) &&
               registry_.GetAggregate(rel) == nullptr) {
      return undefined(rel);
    }
  }
  return influents;
}

Status RuleManager::SyncDefinitions() {
  if (registry_.version() == registry_version_) return Status::OK();
  // A definition was added since the influents and the network were
  // derived. A relation an activation now reads is monitored from the
  // start of the open transaction; one it no longer reads is released.
  for (Activation& act : activations_) {
    DELTAMON_ASSIGN_OR_RETURN(std::vector<RelationId> influents,
                              Influents(act.condition));
    for (RelationId rel : influents) {
      if (!std::binary_search(act.influents.begin(), act.influents.end(),
                              rel)) {
        db_.MarkMonitoredFromTransactionStart(rel);
      }
    }
    for (RelationId rel : act.influents) {
      if (!std::binary_search(influents.begin(), influents.end(), rel)) {
        db_.UnmarkMonitored(rel);
      }
    }
    act.influents = std::move(influents);
  }
  registry_version_ = registry_.version();
  network_dirty_ = true;
  return Status::OK();
}

RuleManager::Activation* RuleManager::FindActivation(RuleId rule,
                                                     const Tuple& params) {
  for (Activation& act : activations_) {
    if (act.rule == rule && act.params == params) return &act;
  }
  return nullptr;
}

Status RuleManager::Activate(RuleId rule, const Tuple& params) {
  auto rit = rules_.find(rule);
  if (rit == rules_.end()) return Status::NotFound("unknown rule id");
  if (FindActivation(rule, params) != nullptr) {
    return Status::AlreadyExists("rule '" + rit->second.name +
                                 "' is already activated for " +
                                 params.ToString());
  }
  DELTAMON_ASSIGN_OR_RETURN(RelationId cond,
                            SpecializeCondition(rit->second, params));
  Activation act;
  act.id = next_activation_id_++;
  act.rule = rule;
  act.params = params;
  act.condition = cond;
  DELTAMON_ASSIGN_OR_RETURN(act.influents, Influents(cond));
  for (RelationId rel : act.influents) db_.MarkMonitored(rel);

  // Naive and hybrid monitoring materialize the condition extent at
  // activation time (the space cost the incremental algorithm avoids).
  if (mode_ != MonitorMode::kIncremental) {
    objectlog::Evaluator ev(db_, registry_, objectlog::StateContext{});
    ev.SetProfiler(profiler_);
    DELTAMON_RETURN_IF_ERROR(
        ev.Evaluate(cond, EvalState::kNew, &act.naive_extent));
    act.naive_extent_valid = true;
  }
  activations_.push_back(std::move(act));
  network_dirty_ = true;
  return Status::OK();
}

Status RuleManager::Deactivate(RuleId rule, const Tuple& params) {
  for (auto it = activations_.begin(); it != activations_.end(); ++it) {
    if (it->rule != rule || !(it->params == params)) continue;
    for (RelationId rel : it->influents) db_.UnmarkMonitored(rel);
    activations_.erase(it);
    network_dirty_ = true;
    return Status::OK();
  }
  return Status::NotFound("rule is not activated with these parameters");
}

void RuleManager::SetMode(MonitorMode mode) {
  if (mode == mode_) return;
  mode_ = mode;
  network_dirty_ = true;  // hybrid alters root specs
  // Materialized condition extents are maintained per mode; a mode that
  // did not maintain them leaves them stale, so drop them.
  for (Activation& act : activations_) {
    act.naive_extent.clear();
    act.naive_extent_valid = false;
  }
}

void RuleManager::SetNetworkOptions(core::BuildOptions options) {
  build_options_ = std::move(options);
  network_dirty_ = true;
}

void RuleManager::SetMaterializeIntermediates(bool on) {
  if (on != materialize_intermediates_) network_dirty_ = true;
  materialize_intermediates_ = on;
}

void RuleManager::SetNumThreads(size_t num_threads) {
  if (num_threads == 0) {
    num_threads = std::thread::hardware_concurrency();
    if (num_threads == 0) num_threads = 1;
  }
  if (num_threads == num_threads_) return;
  num_threads_ = num_threads;
  // The pool always matches the setting exactly, so the Propagator's
  // pool->num_workers() resolution yields the requested parallelism.
  pool_ = num_threads_ > 1
              ? std::make_unique<common::ThreadPool>(num_threads_)
              : nullptr;
  // Resizing invalidates the per-worker cache identity; start fresh.
  eval_caches_.clear();
}

Status RuleManager::RebuildNetwork() {
  network_dirty_ = false;
  network_.reset();
  // Retained cache entries may reference relations of the old network's
  // definitions; drop everything on a rebuild.
  eval_caches_.clear();
  if (activations_.empty()) return Status::OK();
  std::vector<core::RootSpec> roots;
  for (const Activation& act : activations_) {
    const Rule& rule = rules_.at(act.rule);
    core::RootSpec spec;
    spec.relation = act.condition;
    bool strict = rule.options.semantics == Semantics::kStrict;
    spec.needs_minus = rule.options.propagate_deletions.value_or(strict);
    // Hybrid mode maintains a materialized condition extent by applying
    // each round's root Δ-set, which requires deletions to be propagated;
    // the same holds for materialized intermediate views.
    if (mode_ == MonitorMode::kHybrid || materialize_intermediates_) {
      spec.needs_minus = true;
    }
    spec.strict = strict;
    // Merge with an existing root for the same (shared) condition.
    bool merged = false;
    for (core::RootSpec& existing : roots) {
      if (existing.relation == spec.relation) {
        existing.needs_minus = existing.needs_minus || spec.needs_minus;
        existing.strict = existing.strict || spec.strict;
        merged = true;
        break;
      }
    }
    if (!merged) roots.push_back(spec);
  }
  DELTAMON_ASSIGN_OR_RETURN(
      core::PropagationNetwork net,
      core::PropagationNetwork::Build(roots, registry_, db_.catalog(),
                                      build_options_));
  network_ = std::make_unique<core::PropagationNetwork>(std::move(net));
  view_store_.Clear();
  view_store_ready_ = false;
  return Status::OK();
}

Result<const core::PropagationNetwork*> RuleManager::network() {
  DELTAMON_RETURN_IF_ERROR(SyncDefinitions());
  if (network_dirty_ || (network_ == nullptr && !activations_.empty())) {
    DELTAMON_RETURN_IF_ERROR(RebuildNetwork());
  }
  // New observed selectivities (analyze rule, explain analyze) steer the
  // very next wave's literal order. Callers hold the exclusive gate, so no
  // wave is reading the plans.
  if (network_ != nullptr) {
    network_->RefreshKernelPlans(registry_, db_.catalog());
  }
  return static_cast<const core::PropagationNetwork*>(network_.get());
}

RuleManager::Activation* RuleManager::PickTriggered() {
  Activation* best = nullptr;
  int best_priority = 0;
  for (Activation& act : activations_) {
    if (act.pending.plus().empty()) continue;
    int priority = rules_.at(act.rule).options.priority;
    if (best == nullptr || priority > best_priority ||
        (priority == best_priority && act.id < best->id)) {
      best = &act;
      best_priority = priority;
    }
  }
  return best;
}

Status RuleManager::RunIncrementalRound(
    Database& db, const std::unordered_map<RelationId, DeltaSet>& deltas) {
  DELTAMON_OBS_SCOPED_TIMER(round_timer, "rules.incremental_round_ns");
  DELTAMON_OBS_COUNT("rules.incremental_rounds", 1);
  DELTAMON_OBS_SPAN(round_span, "rules", "incremental_round");
  DELTAMON_ASSIGN_OR_RETURN(const core::PropagationNetwork* net, network());
  if (net == nullptr) return Status::OK();
  core::MaterializedViewStore* store = nullptr;
  if (materialize_intermediates_ && mode_ == MonitorMode::kIncremental) {
    if (!view_store_ready_) {
      // Lazy first round: the transaction's updates are already applied,
      // so materialize the extents as of the OLD (rolled-back) state; the
      // wave then brings them forward.
      DELTAMON_RETURN_IF_ERROR(
          view_store_.Initialize(*net, db, registry_, &deltas));
      view_store_ready_ = true;
    }
    store = &view_store_;
  }
  core::PropagationOptions popts;
  popts.pool = pool_.get();
  popts.profiler = profiler_;
  popts.kernels = kernels_enabled_;
  popts.lineage = provenance_enabled();
  // Persist per-worker caches across waves so retained indexed extents
  // (recursive-fixpoint materializations over unchanged inputs) are
  // reused instead of recomputed. Propagate() resolves its effective
  // worker count the same way as below, so the vector size always
  // suffices.
  size_t workers = pool_ != nullptr ? pool_->num_workers() : 1;
  if (eval_caches_.size() != workers) {
    eval_caches_.clear();
    eval_caches_.resize(workers);
  }
  popts.caches = &eval_caches_;
  core::Propagator propagator(db, registry_, *net, store, popts);
  DELTAMON_ASSIGN_OR_RETURN(core::PropagationResult result,
                            propagator.Propagate(deltas));
  ++last_check_.incremental_waves;
  last_check_.propagation.Add(result.stats);
  for (core::TraceEntry& e : result.trace) last_trace_.push_back(e);
  for (Activation& act : activations_) {
    auto it = result.root_deltas.find(act.condition);
    if (it == result.root_deltas.end()) continue;
    act.pending.DeltaUnion(it->second);
    // Hybrid: keep the materialized extent current so a later naive round
    // can diff against it instead of re-deriving the old state.
    if (mode_ == MonitorMode::kHybrid && act.naive_extent_valid) {
      act.naive_extent = ApplyDelta(act.naive_extent, it->second);
    }
  }
  if (popts.lineage) lineage_.Merge(std::move(result.lineage));
  if (wave_capture_enabled()) {
    last_round_roots_ = std::move(result.root_deltas);
  }
  return Status::OK();
}

Status RuleManager::RunNaiveRound(
    Database& db, const std::unordered_map<RelationId, DeltaSet>& deltas) {
  DELTAMON_OBS_SCOPED_TIMER(round_timer, "rules.naive_round_ns");
  DELTAMON_OBS_COUNT("rules.naive_rounds", 1);
  DELTAMON_OBS_SPAN(round_span, "rules", "naive_round");
  objectlog::StateContext ctx;
  ctx.deltas = &deltas;
  for (Activation& act : activations_) {
    bool affected = false;
    for (RelationId rel : act.influents) {
      if (deltas.contains(rel)) {
        affected = true;
        break;
      }
    }
    if (!affected) continue;
    ++last_check_.naive_recomputations;
    DELTAMON_OBS_COUNT("rules.naive_recomputations", 1);
    objectlog::Evaluator ev(db, registry_, ctx);
    ev.SetProfiler(profiler_);
    TupleSet current;
    DELTAMON_RETURN_IF_ERROR(
        ev.Evaluate(act.condition, EvalState::kNew, &current));
    TupleSet previous;
    if (act.naive_extent_valid) {
      previous = std::move(act.naive_extent);
      act.naive_extent_valid = false;
    } else {
      // Hybrid path: no materialization; reconstruct the previous extent
      // by evaluating in the rolled-back old state.
      DELTAMON_RETURN_IF_ERROR(
          ev.Evaluate(act.condition, EvalState::kOld, &previous));
    }
    act.pending.DeltaUnion(DiffStates(previous, current));
    if (mode_ != MonitorMode::kIncremental) {
      act.naive_extent = std::move(current);
      act.naive_extent_valid = true;
    }
  }
  return Status::OK();
}

Status RuleManager::CheckPhase(Database& db) {
  DELTAMON_OBS_SCOPED_TIMER(check_timer, "rules.check_ns");
  DELTAMON_OBS_COUNT("rules.check_phases", 1);
  DELTAMON_OBS_SPAN(check_span, "rules", "check_phase");
  last_check_.Reset();
  last_trace_.clear();
  lineage_ = core::WaveLineage();
  last_round_roots_.clear();
  if (activations_.empty()) return Status::OK();
  // Before the first round: a relation that a definition added since the
  // last check makes an influent must contribute this transaction's Δ.
  DELTAMON_RETURN_IF_ERROR(SyncDefinitions());

  // Wave capture: one record per incremental round, opened after the
  // propagation and flushed once the round's firings are known. Naive
  // recomputation rounds are not waves and are not captured.
  std::optional<obs::WaveRecord> open_wave;

  while (db.HasPendingChanges()) {
    if (last_check_.rounds >= max_rounds_) {
      return Status::FailedPrecondition(
          "rule processing exceeded " + std::to_string(max_rounds_) +
          " rounds without reaching a fixpoint");
    }
    ++last_check_.rounds;
    DELTAMON_OBS_SPAN(round_span, "rules", "round");
    round_span.AddField("round", static_cast<int64_t>(last_check_.rounds));
    std::unordered_map<RelationId, DeltaSet> deltas = db.TakePendingDeltas();
    if (deltas.empty()) break;

    bool incremental = true;
    if (mode_ == MonitorMode::kNaive) {
      incremental = false;
    } else if (mode_ == MonitorMode::kHybrid) {
      size_t total = 0;
      for (const auto& [rel, d] : deltas) total += d.size();
      // Cost model: incremental work scales with the changed tuples, naive
      // with the influent extents; switch to naive once the changes exceed
      // half the influent tuples. That was the crossover bench/
      // hybrid_crossover showed before the batch kernels. With them,
      // incremental is faster at every point of that sweep and on fig. 7
      // (EXPERIMENTS.md), so this switch now picks the slower mode.
      size_t influent_tuples = 0;
      std::unordered_set<RelationId> seen;
      for (const Activation& act : activations_) {
        for (RelationId rel : act.influents) {
          if (!seen.insert(rel).second) continue;
          const BaseRelation* base = db.catalog().GetBaseRelation(rel);
          if (base != nullptr) influent_tuples += base->size();
        }
      }
      incremental = 2 * total <= influent_tuples;
    }
    DELTAMON_RETURN_IF_ERROR(incremental ? RunIncrementalRound(db, deltas)
                                         : RunNaiveRound(db, deltas));
    if (incremental && wave_capture_enabled()) {
      open_wave.emplace();
      open_wave->trace_id = obs::CurrentTraceId();
      open_wave->version = commit_version_;
      open_wave->round = last_check_.rounds;
      open_wave->threads = num_threads_;
      open_wave->kernels = kernels_enabled_;
      open_wave->influents = RenderWaveDeltas(deltas, db.catalog());
      open_wave->roots = RenderWaveDeltas(last_round_roots_, db.catalog());
    }

    // Fire triggered rules one at a time (conflict resolution) until the
    // action of some rule changes the database again — then propagate
    // those changes first so later firings see net conditions.
    while (!db.HasPendingChanges()) {
      Activation* act = PickTriggered();
      if (act == nullptr) break;
      std::vector<Tuple> instances = SortedTuples(act->pending.plus());
      act->pending.Clear();
      ++last_check_.rule_firings;
      const Rule& rule = rules_.at(act->rule);
      if (open_wave.has_value()) {
        for (const Tuple& t : instances) {
          open_wave->firings.push_back(rule.name + " " + t.ToString());
        }
      }
      if (provenance_enabled()) {
        obs::FiringRecord rec;
        rec.trace_id = obs::CurrentTraceId();
        rec.version = commit_version_;
        rec.rule = rule.name;
        rec.round = last_check_.rounds;
        rec.total_instances = instances.size();
        rec.captured_instances =
            std::min(instances.size(), kMaxLineageInstances);
        rec.instances.reserve(instances.size());
        for (const Tuple& t : instances) rec.instances.push_back(t.ToString());
        for (size_t i = 0; i < rec.captured_instances; ++i) {
          rec.lineage.Append(lineage_.Export(act->condition, /*plus=*/true,
                                             instances[i], db.catalog()));
        }
        obs::GlobalProvenanceLog().Record(std::move(rec));
      }
      DELTAMON_OBS_COUNT("rules.firings", 1);
      DELTAMON_OBS_SPAN(fire_span, "rules", "fire");
      if (fire_span.active()) {
        fire_span.SetName("fire:" + rule.name);
        fire_span.AddField("rule", static_cast<int64_t>(rule.id));
        fire_span.AddField("instances",
                           static_cast<int64_t>(instances.size()));
      }
#if DELTAMON_OBS_ENABLED
      // Per-rule firing latency under a dynamic name: firings are rare
      // (they run user actions), so the map lookup is irrelevant here.
      obs::Histogram* action_hist =
          obs::Enabled() ? obs::Registry::Global().GetHistogram(
                               "rules.action_ns." + rule.name)
                         : nullptr;
      obs::ScopedTimer action_timer(action_hist);
#endif
      if (rule.action != nullptr) {
        DELTAMON_RETURN_IF_ERROR(rule.action(db, act->params, instances));
      }
    }
    if (open_wave.has_value()) {
      // The round is complete: every firing it could trigger either ran
      // (recorded above) or waits on changes that open the next round.
      obs::GlobalWaveRecorder().Record(std::move(*open_wave));
      open_wave.reset();
    }
  }
  // Net deletions that fired nothing are dropped at the end of the phase.
  for (Activation& act : activations_) act.pending.Clear();
  check_span.AddField("rounds", static_cast<int64_t>(last_check_.rounds));
  check_span.AddField("rule_firings",
                      static_cast<int64_t>(last_check_.rule_firings));
  return Status::OK();
}

std::vector<std::string> RuleManager::ExplainLastTrigger(RuleId rule) const {
  std::vector<std::string> out;
  for (const Activation& act : activations_) {
    if (act.rule != rule) continue;
    for (const core::TraceEntry& e : last_trace_) {
      if (e.target == act.condition && e.tuples_produced > 0) {
        out.push_back(e.ToString(db_.catalog()));
      }
    }
  }
  return out;
}

}  // namespace deltamon::rules
