#include "core/propagator.h"

#include <algorithm>
#include <chrono>

#include "common/thread_pool.h"
#include "obs/metrics.h"
#include "obs/span.h"
#include "obs/trace.h"

namespace deltamon::core {

void PropagationResult::Stats::PublishToRegistry() const {
  DELTAMON_OBS_COUNT("propagator.waves", 1);
  DELTAMON_OBS_COUNT("propagator.differentials_executed",
                     differentials_executed);
  DELTAMON_OBS_COUNT("propagator.differentials_skipped",
                     differentials_skipped);
  DELTAMON_OBS_COUNT("propagator.tuples_propagated", tuples_propagated);
  DELTAMON_OBS_COUNT("propagator.filtered_plus", filtered_plus);
  DELTAMON_OBS_COUNT("propagator.filtered_minus", filtered_minus);
  DELTAMON_OBS_RECORD("propagator.peak_wavefront_tuples",
                      peak_wavefront_tuples);
  DELTAMON_OBS_GAUGE_SET("propagator.materialized_resident_tuples",
                         materialized_resident_tuples);
}

void PropagationResult::Stats::Add(const Stats& later) {
  differentials_executed += later.differentials_executed;
  differentials_skipped += later.differentials_skipped;
  tuples_propagated += later.tuples_propagated;
  filtered_plus += later.filtered_plus;
  filtered_minus += later.filtered_minus;
  peak_wavefront_tuples =
      std::max(peak_wavefront_tuples, later.peak_wavefront_tuples);
  materialized_resident_tuples = later.materialized_resident_tuples;
}

std::string TraceEntry::ToString(const Catalog& catalog) const {
  std::string out = "Δ";
  out += produces_plus ? "+" : "-";
  out += catalog.RelationName(target);
  out += "/Δ";
  out += reads_plus ? "+" : "-";
  out += catalog.RelationName(influent);
  out += ": " + std::to_string(tuples_consumed) + " -> " +
         std::to_string(tuples_produced) + " tuples";
  return out;
}

std::vector<TraceEntry> PropagationResult::Explain(RelationId root) const {
  std::vector<TraceEntry> out;
  for (const TraceEntry& e : trace) {
    if (e.target == root && e.tuples_produced > 0) out.push_back(e);
  }
  return out;
}

namespace {

/// One differential's output as a one-sided Δ-set.
DeltaSet AsDelta(const PartialDifferential& diff, TupleSet produced) {
  return diff.produces_plus ? DeltaSet(std::move(produced), TupleSet{})
                            : DeltaSet(TupleSet{}, std::move(produced));
}

}  // namespace

Status Propagator::ProcessNode(
    RelationId rel, size_t level,
    const std::unordered_map<RelationId, DeltaSet>& wave,
    const std::unordered_map<RelationId, const BaseRelation*>& view_map,
    objectlog::BuildSideStore* build_sides, objectlog::EvalCache* cache,
    NodeOutput* out) const {
  const NetworkNode& node = network_.nodes().at(rel);
  PropagationResult::Stats& stats = out->stats;
  // Per-node attribution (span + NodeStats): one clock pair per node per
  // wave, only when instrumentation is live — never per tuple. On a worker
  // thread the span becomes a thread-local root (see docs/observability.md).
  DELTAMON_OBS_SPAN(node_span, "propagation", "node");
#if DELTAMON_OBS_ENABLED
  if (node_span.active()) {
    node_span.SetName("node:" + db_.catalog().RelationName(rel));
    node_span.AddField("relation", static_cast<int64_t>(rel));
    node_span.AddField("level", static_cast<int64_t>(level));
  }
  const bool node_obs = obs::Enabled();
  const auto node_start = node_obs ? std::chrono::steady_clock::now()
                                   : std::chrono::steady_clock::time_point{};
#else
  (void)level;
#endif
  // While this node is being computed, point queries against it (the §7.2
  // filters) must evaluate its *definition*, not its stale pre-wave extent:
  // hide its own view for the duration. The hide goes through the
  // evaluator's context (not the shared map) so concurrent nodes of the
  // same level can keep reading view_map.
  objectlog::StateContext ctx;
  ctx.deltas = &wave;
  if (!view_map.empty()) ctx.views = &view_map;
  ctx.hidden_view = rel;
  ctx.build_sides = build_sides;
  // The recursive fixpoint below re-exposes this node's growing Δ-set to
  // its own Δ-role literals through this overlay slot — again without
  // touching the shared wave map.
  DeltaSet overlay_slot;
  ctx.overlay_rel = rel;
  ctx.overlay_delta = &overlay_slot;
  objectlog::Evaluator evaluator(db_, registry_, ctx, cache);
  evaluator.EnableKernels(options_.kernels);
  if (options_.profiler != nullptr) evaluator.SetProfiler(&out->profile);

  // Runs one partial differential — a single set-oriented evaluation,
  // through the kernel plan the network compiled for it — into
  // `produced`. With lineage on, the same pass reports the influent Δ-row
  // behind each derivation, recorded as a lineage edge.
  objectlog::Derivations derivations;
  auto run_differential = [&](const PartialDifferential& diff,
                              TupleSet* produced) -> Status {
    const objectlog::KernelPlan* plan = &diff.kernel_plans[options_.lineage];
    if (!options_.lineage) {
      return evaluator.EvaluateClause(diff.clause, produced, nullptr, plan);
    }
    derivations.clear();
    DELTAMON_RETURN_IF_ERROR(evaluator.EvaluateClause(diff.clause, produced,
                                                      &derivations, plan));
    const std::string via = diff.Name(db_.catalog());
    for (objectlog::Derivation& d : derivations) {
      out->lineage.AddParent(rel, diff.produces_plus, d.head,
                             WaveLineage::Parent{diff.influent, diff.reads_plus,
                                                 std::move(d.delta_row), via});
    }
    return Status::OK();
  };

  // Books one executed partial differential: its trace entry, its stats
  // and its span's tuple counts. Self-edge runs pass a NullSpan: they stay
  // under the fixpoint span.
  auto book = [&](const PartialDifferential& diff, size_t consumed,
                  size_t produced, auto& span) {
    ++stats.differentials_executed;
    stats.tuples_propagated += produced;
    out->trace.push_back(TraceEntry{diff.target, diff.influent,
                                    diff.reads_plus, diff.produces_plus,
                                    consumed, produced});
    if (!diff.aggregate) {
      span.AddField("tuples_consumed", static_cast<int64_t>(consumed));
    }
    span.AddField("tuples_produced", static_cast<int64_t>(produced));
  };

  // §7.2 point queries against this node's definition: a tuple the query
  // finds is dropped and counted in `*filtered`.
  auto derivable_in = [&](objectlog::EvalState state, size_t* filtered) {
    return [&evaluator, rel, state, filtered](const Tuple& t) -> Result<bool> {
      DELTAMON_ASSIGN_OR_RETURN(bool derivable,
                                evaluator.Derivable(rel, state, t));
      *filtered += derivable;
      return derivable;
    };
  };
  // §7.2: a candidate deletion still derivable in the new state must not be
  // propagated — otherwise ∪Δ could cancel a genuine insertion and the rule
  // would under-react, which is unacceptable. (The dual over-approximation
  // on the plus side is harmless here and handled at strict roots below.)
  const auto still_derivable =
      derivable_in(objectlog::EvalState::kNew, &stats.filtered_minus);
  const decltype(still_derivable)* const no_filter = nullptr;

  DeltaSet acc;
  // Self-edges (linear recursion, paper §5 footnote) are iterated to a
  // fixpoint after the external contributions are known.
  std::vector<size_t> self_edges;
  for (size_t edge : node.in_edges) {
    const PartialDifferential& diff = network_.differentials()[edge];
    if (diff.influent == rel) {
      self_edges.push_back(edge);
      continue;
    }
    // An aggregate edge consumes both sides of the source Δ-set, every
    // other edge the side its Δ-role literal reads.
    auto src = wave.find(diff.influent);
    const size_t consumed =
        src == wave.end() ? 0
        : diff.aggregate  ? src->second.size()
        : diff.reads_plus ? src->second.plus().size()
                          : src->second.minus().size();
    if (consumed == 0) {
      ++stats.differentials_skipped;
      continue;
    }
    DELTAMON_OBS_SPAN(diff_span, "propagation", "differential");
    if (diff_span.active()) diff_span.SetName(diff.Name(db_.catalog()));
    DeltaSet contribution;
    if (diff.aggregate) {
      // Aggregate edge (§8 extension): re-aggregate every group touched by
      // the source Δ-set in the old and new states and diff — exact nets,
      // so no §7.2 filtering is needed.
      const objectlog::AggregateDef& def = *node.aggregate;
      TupleSet keys;
      // Lineage only: each group's source Δ-rows, bucketed in the same
      // pass, so attributing a changed group costs its own rows.
      std::unordered_map<Tuple, std::vector<WaveLineage::Parent>, TupleHash>
          parents_by_key;
      const std::string via =
          options_.lineage ? diff.Name(db_.catalog()) : std::string();
      for (bool src_plus : {true, false}) {
        const TupleSet& side =
            src_plus ? src->second.plus() : src->second.minus();
        for (const Tuple& t : side) {
          Tuple key = t.Project(def.group_by);
          if (options_.lineage) {
            parents_by_key[key].push_back(
                WaveLineage::Parent{diff.influent, src_plus, t, via});
          }
          keys.insert(std::move(key));
        }
      }
      for (const Tuple& key : keys) {
        ScanPattern pattern(def.group_by.size() + 1);
        for (size_t i = 0; i < key.arity(); ++i) pattern[i] = key[i];
        TupleSet old_rows;
        TupleSet new_rows;
        DELTAMON_RETURN_IF_ERROR(evaluator.Probe(
            rel, objectlog::EvalState::kOld, pattern, &old_rows));
        DELTAMON_RETURN_IF_ERROR(evaluator.Probe(
            rel, objectlog::EvalState::kNew, pattern, &new_rows));
        DeltaSet group_delta = DiffStates(old_rows, new_rows);
        if (options_.lineage && !group_delta.empty()) {
          // A changed group's Δ rows descend from every source Δ-row of
          // that group — the re-aggregation read them all.
          for (const WaveLineage::Parent& parent : parents_by_key.at(key)) {
            for (const Tuple& o : group_delta.plus()) {
              out->lineage.AddParent(rel, true, o, parent);
            }
            for (const Tuple& o : group_delta.minus()) {
              out->lineage.AddParent(rel, false, o, parent);
            }
          }
        }
        contribution.DeltaUnion(group_delta);
      }
      diff_span.AddField("groups", static_cast<int64_t>(keys.size()));
      book(diff, consumed, contribution.size(), diff_span);
    } else {
      TupleSet produced;
      DELTAMON_RETURN_IF_ERROR(run_differential(diff, &produced));
      book(diff, consumed, produced.size(), diff_span);
      contribution = AsDelta(diff, std::move(produced));
      DELTAMON_RETURN_IF_ERROR(
          contribution.FilterStrict(no_filter, &still_derivable));
    }
    acc.DeltaUnion(contribution);
  }

  // Fixpoint iteration over the self-edges: the frontier of fresh changes
  // is re-exposed as this node's Δ-set (via the overlay) and the recursive
  // differentials re-run until nothing new is derived (insertions:
  // semi-naive; deletions: DRed-style, with the §7.2 rederivability filter
  // pruning tuples still derivable through surviving paths).
  if (!self_edges.empty() && !acc.empty()) {
    DELTAMON_OBS_SPAN(fixpoint_span, "propagation", "fixpoint");
    obs::NullSpan no_span;
    overlay_slot = acc;
    TupleSet total_plus = acc.plus();
    TupleSet total_minus = acc.minus();
    // A derived tuple is fresh only when the fixpoint has not seen it; a
    // fresh deletion must also pass the §7.2 filter.
    auto seen_plus = [&](const Tuple& t) { return total_plus.contains(t); };
    auto seen_or_derivable = [&](const Tuple& t) -> Result<bool> {
      if (total_minus.contains(t)) return true;
      return still_derivable(t);
    };
    constexpr int kMaxFixpointRounds = 100000;
    int round = 0;
    for (; round < kMaxFixpointRounds && !overlay_slot.empty(); ++round) {
      TupleSet fresh_plus;
      TupleSet fresh_minus;
      for (size_t edge : self_edges) {
        const PartialDifferential& diff = network_.differentials()[edge];
        const TupleSet& side = diff.reads_plus ? overlay_slot.plus()
                                               : overlay_slot.minus();
        if (side.empty()) {
          ++stats.differentials_skipped;
          continue;
        }
        TupleSet produced;
        DELTAMON_RETURN_IF_ERROR(run_differential(diff, &produced));
        book(diff, side.size(), produced.size(), no_span);
        DeltaSet fresh = AsDelta(diff, std::move(produced));
        DELTAMON_RETURN_IF_ERROR(
            fresh.FilterStrict(&seen_plus, &seen_or_derivable));
        fresh_plus.insert(fresh.plus().begin(), fresh.plus().end());
        fresh_minus.insert(fresh.minus().begin(), fresh.minus().end());
      }
      total_plus.reserve(total_plus.size() + fresh_plus.size());
      total_plus.insert(fresh_plus.begin(), fresh_plus.end());
      total_minus.reserve(total_minus.size() + fresh_minus.size());
      total_minus.insert(fresh_minus.begin(), fresh_minus.end());
      overlay_slot = DeltaSet(std::move(fresh_plus), std::move(fresh_minus));
    }
    // Post-fixpoint point queries (the filters below) must see this node
    // as unchanged again, exactly as the serial algorithm saw it after
    // removing the frontier from the wave.
    overlay_slot = DeltaSet();
    fixpoint_span.AddField("rounds", round);
    if (round >= kMaxFixpointRounds) {
      return Status::Internal("recursive propagation did not converge");
    }
    acc = DeltaSet(std::move(total_plus), std::move(total_minus));
  }

  // Δ+ filters on the node's final Δ-set:
  //  - Materialized mode: node Δ-sets must be exact nets, because the
  //    extent is maintained by applying them and parents reconstruct this
  //    node's OLD state by rolling its Δ back — an over-approximated Δ+
  //    entry (a tuple that was already derivable) would wrongly vanish from
  //    the reconstructed old state. The node's own extent has not been
  //    applied yet, so it IS the old state: one hash probe filters each
  //    candidate. (Without views this filter is unnecessary: old states of
  //    derived nodes are re-evaluated from base relations.)
  //  - Strict roots (§7.2): drop insertions whose condition instance was
  //    already true in the old state.
  auto self_view = view_map.find(rel);
  const BaseRelation* old_extent =
      self_view == view_map.end() ? nullptr : self_view->second;
  if (old_extent != nullptr || node.strict_root) {
    const auto was_derivable =
        derivable_in(objectlog::EvalState::kOld, &stats.filtered_plus);
    auto already_true = [&](const Tuple& t) -> Result<bool> {
      if (old_extent != nullptr && old_extent->Contains(t)) {
        ++stats.filtered_plus;
        return true;
      }
      if (!node.strict_root) return false;
      return was_derivable(t);
    };
    DELTAMON_RETURN_IF_ERROR(acc.FilterStrict(&already_true, no_filter));
  }

  // acc is final here: fold this node's contribution into its cross-wave
  // attribution and the node span. NodeStats adds are relaxed atomics, so
  // attribution from a worker thread is safe.
#if DELTAMON_OBS_ENABLED
  if (node_obs || node_span.active()) {
    uint64_t consumed = 0;
    for (const TraceEntry& e : out->trace) consumed += e.tuples_consumed;
    node_span.AddField("tuples_consumed", static_cast<int64_t>(consumed));
    node_span.AddField("plus_produced",
                       static_cast<int64_t>(acc.plus().size()));
    node_span.AddField("minus_produced",
                       static_cast<int64_t>(acc.minus().size()));
    if (node_obs) {
      auto elapsed = std::chrono::steady_clock::now() - node_start;
      node.stats.Add(consumed, acc.plus().size(), acc.minus().size(),
                     static_cast<uint64_t>(
                         std::chrono::duration_cast<std::chrono::nanoseconds>(
                             elapsed)
                             .count()));
    }
  }
#endif
  out->acc = std::move(acc);
  return Status::OK();
}

Status Propagator::MergeNode(RelationId rel, NodeOutput* out,
                             PropagationResult* result,
                             std::unordered_map<RelationId, DeltaSet>* wave,
                             size_t* wavefront) const {
  DELTAMON_RETURN_IF_ERROR(out->status);
  result->stats.Add(out->stats);
  for (TraceEntry& e : out->trace) result->trace.push_back(e);

  const NetworkNode& node = network_.nodes().at(rel);
  if (options_.profiler != nullptr && !out->profile.empty()) {
    // Serial fold in fixed level order: the global profile and the node's
    // own profile see worker-private counters in a deterministic sequence,
    // so the merged result is bit-identical at any thread count.
    node.profile.Merge(out->profile);
    options_.profiler->Merge(out->profile);
  }

  if (options_.lineage && !out->lineage.empty()) {
    // Same serial level-order fold as the profiles: parent vectors are
    // appended deterministically, and Export sorts anyway, so lineage is
    // bit-identical at any thread count.
    result->lineage.Merge(std::move(out->lineage));
  }

  DeltaSet& acc = out->acc;
  if (!acc.empty()) {
    if (views_ != nullptr) DELTAMON_RETURN_IF_ERROR(views_->Apply(rel, acc));
    *wavefront += acc.size();
    (*wave)[rel] = std::move(acc);
    result->stats.peak_wavefront_tuples =
        std::max(result->stats.peak_wavefront_tuples, *wavefront);
  }

  // Wave-front discard: the network lists the children this node is the
  // last parent of; their Δ-sets have no reader left.
  for (RelationId child : node.releases) {
    auto it = wave->find(child);
    if (it != wave->end()) {
      *wavefront -= it->second.size();
      wave->erase(it);
    }
  }
  return Status::OK();
}

Result<PropagationResult> Propagator::Propagate(
    const std::unordered_map<RelationId, DeltaSet>& base_deltas) const {
  DELTAMON_OBS_SCOPED_TIMER(wave_timer, "propagator.wave_ns");
  DELTAMON_OBS_SPAN(wave_span, "propagation", "wave");
  PropagationResult result;
  for (const RootSpec& root : network_.roots()) {
    result.root_deltas.emplace(root.relation, DeltaSet());
  }

  // Seed the wave with the Δ-sets of base influents.
  std::unordered_map<RelationId, DeltaSet> wave;
  for (const auto& [rel, delta] : base_deltas) {
    const NetworkNode* node = network_.node(rel);
    if (node != nullptr && node->is_base && !delta.empty()) {
      if (options_.lineage) {
        for (const Tuple& t : delta.plus()) {
          result.lineage.AddBase(rel, true, t);
        }
        for (const Tuple& t : delta.minus()) {
          result.lineage.AddBase(rel, false, t);
        }
      }
      wave.emplace(rel, delta);
    }
  }
  wave_span.AddField("base_influents_changed",
                     static_cast<int64_t>(wave.size()));
  if (wave.empty()) return result;

  // PF-style mode: expose the maintained extents of derived nodes to the
  // evaluator. Extents are applied as each node completes, so parents read
  // NEW state directly and OLD state by rollback over the wave Δ-sets.
  std::unordered_map<RelationId, const BaseRelation*> view_map;
  if (views_ != nullptr && !views_->empty()) {
    for (const auto& [rel, node] : network_.nodes()) {
      const BaseRelation* view = views_->Get(rel);
      if (view != nullptr) view_map.emplace(rel, view);
    }
  }

  // The pool's size is the parallelism; without one, each level's nodes
  // evaluate inline on the caller. Workers keep private EvalCaches — pure
  // memoization, so duplicated entries cost at most repeated work.
  common::ThreadPool* pool = options_.pool;
  const size_t num_workers = pool != nullptr ? pool->num_workers() : 1;
  // Evaluation caches: by default one fresh EvalCache per worker; a caller
  // that passes PropagationOptions::caches keeps them across waves, so
  // indexed recursive-fixpoint materializations survive when nothing they
  // were computed from changed. The drop predicate is conservative: kOld
  // extents always go (their logical rollback read this wave's Δ-sets),
  // kNew extents go when the relation or its reach holds a base relation
  // changed in this wave — or a foreign function, whose extent may drift
  // between waves without a recorded delta. Fresh caches hold nothing to
  // drop.
  std::vector<objectlog::EvalCache> local_caches;
  std::vector<objectlog::EvalCache>* caches = options_.caches;
  if (caches == nullptr || caches->size() < num_workers) {
    local_caches.resize(num_workers);
    caches = &local_caches;
  }
  auto input_changed = [&](RelationId rel) {
    auto it = base_deltas.find(rel);
    return (it != base_deltas.end() && !it->second.empty()) ||
           registry_.GetForeign(rel) != nullptr;
  };
  auto drop = [&](RelationId rel, objectlog::EvalState state) {
    const std::vector<RelationId>& reach = registry_.Reach(rel);
    return state == objectlog::EvalState::kOld || input_changed(rel) ||
           std::any_of(reach.begin(), reach.end(), input_changed);
  };
  for (objectlog::EvalCache& cache : *caches) cache.BeginWave(drop);
  // Hash-join build sides over stored relations, shared by every node and
  // worker of this wave and rebuilt by the next one.
  objectlog::BuildSideStore build_sides;

  size_t wavefront = 0;  // tuples held in intermediate (derived) Δ-sets
  const auto& levels = network_.levels();
  std::vector<NodeOutput> outputs;
  // Pool workers evaluate on behalf of the caller's request: its trace
  // scope rides along with each task, as the per-worker caches do.
  const obs::TraceScope scope = obs::CurrentTraceScope();
  for (size_t lvl = 1; lvl < levels.size(); ++lvl) {
    DELTAMON_OBS_SCOPED_TIMER(level_timer, "propagator.level_ns");
    const std::vector<RelationId>& level_nodes = levels[lvl];
    // Level barrier: every node of the level evaluates against the same
    // frozen wave — no node reads a same-level Δ-set — then the outputs
    // merge in the level's fixed node order.
    outputs.clear();
    outputs.resize(level_nodes.size());
    auto evaluate = [&](size_t i, size_t worker) {
      obs::ScopedTrace trace(scope);
      outputs[i].status =
          ProcessNode(level_nodes[i], lvl, wave, view_map, &build_sides,
                      &(*caches)[worker], &outputs[i]);
    };
    if (pool != nullptr) {
      pool->Run(level_nodes.size(), evaluate);
    } else {
      for (size_t i = 0; i < level_nodes.size(); ++i) evaluate(i, 0);
    }
    for (size_t i = 0; i < level_nodes.size(); ++i) {
      DELTAMON_RETURN_IF_ERROR(
          MergeNode(level_nodes[i], &outputs[i], &result, &wave, &wavefront));
    }
  }

  for (auto& [root, delta] : result.root_deltas) {
    auto it = wave.find(root);
    if (it != wave.end()) delta = std::move(it->second);
  }
  if (views_ != nullptr) {
    result.stats.materialized_resident_tuples = views_->ResidentTuples();
  }

  wave_span.AddField("differentials_executed",
                     static_cast<int64_t>(result.stats.differentials_executed));
  wave_span.AddField("differentials_skipped",
                     static_cast<int64_t>(result.stats.differentials_skipped));
  wave_span.AddField("tuples_propagated",
                     static_cast<int64_t>(result.stats.tuples_propagated));
  result.stats.PublishToRegistry();
#if DELTAMON_OBS_ENABLED
  if (obs::Enabled()) {
    for (const TraceEntry& e : result.trace) {
      DELTAMON_OBS_RECORD("propagator.differential_tuples_consumed",
                          e.tuples_consumed);
      DELTAMON_OBS_RECORD("propagator.differential_tuples_produced",
                          e.tuples_produced);
    }
  }
#endif
  return result;
}

}  // namespace deltamon::core
