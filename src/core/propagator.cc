#include "core/propagator.h"

#include <algorithm>
#include <chrono>
#include <unordered_set>

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

Status Propagator::ProcessNode(
    RelationId rel, size_t level,
    const std::unordered_map<RelationId, DeltaSet>& wave,
    const std::unordered_map<RelationId, const BaseRelation*>& view_map,
    objectlog::EvalCache* cache, NodeOutput* out) const {
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
  // The recursive fixpoint below re-exposes this node's growing Δ-set to
  // its own Δ-role literals through this overlay slot — again without
  // touching the shared wave map.
  DeltaSet overlay_slot;
  ctx.overlay_rel = rel;
  ctx.overlay_delta = &overlay_slot;
  objectlog::Evaluator evaluator(db_, registry_, ctx, cache);
  evaluator.EnableKernels(options_.kernels);
  if (options_.profiler != nullptr) evaluator.SetProfiler(&out->profile);

  // Runs one partial differential — a single set-oriented evaluation —
  // into `produced`. With lineage on, the same pass reports the influent
  // Δ-row behind each derivation, recorded as a lineage edge.
  objectlog::Derivations derivations;
  auto run_differential = [&](const PartialDifferential& diff,
                              TupleSet* produced) -> Status {
    if (!options_.lineage) {
      return evaluator.EvaluateClause(diff.clause, produced);
    }
    derivations.clear();
    DELTAMON_RETURN_IF_ERROR(
        evaluator.EvaluateClause(diff.clause, produced, &derivations));
    const std::string via = diff.Name(db_.catalog());
    for (objectlog::Derivation& d : derivations) {
      out->lineage.AddParent(rel, diff.produces_plus, d.head,
                             WaveLineage::Parent{diff.influent, diff.reads_plus,
                                                 std::move(d.delta_row), via});
    }
    return Status::OK();
  };

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
    auto src = wave.find(diff.influent);

    // Aggregate edge (§8 extension): re-aggregate every group touched by
    // the source Δ-set in the old and new states and diff — exact nets, so
    // no §7.2 filtering is needed.
    if (diff.aggregate) {
      if (src == wave.end() || src->second.empty()) {
        ++stats.differentials_skipped;
        continue;
      }
      DELTAMON_OBS_SPAN(diff_span, "propagation", "differential");
      if (diff_span.active()) diff_span.SetName(diff.Name(db_.catalog()));
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
      size_t produced_total = 0;
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
        produced_total += group_delta.size();
        acc.DeltaUnion(group_delta);
      }
      ++stats.differentials_executed;
      stats.tuples_propagated += produced_total;
      diff_span.AddField("groups", static_cast<int64_t>(keys.size()));
      diff_span.AddField("tuples_produced",
                         static_cast<int64_t>(produced_total));
      out->trace.push_back(TraceEntry{diff.target, diff.influent, true, true,
                                      src->second.size(), produced_total});
      continue;
    }

    const TupleSet* side =
        src == wave.end()
            ? nullptr
            : (diff.reads_plus ? &src->second.plus() : &src->second.minus());
    if (side == nullptr || side->empty()) {
      ++stats.differentials_skipped;
      continue;
    }
    TupleSet produced;
    DELTAMON_OBS_SPAN(diff_span, "propagation", "differential");
    if (diff_span.active()) diff_span.SetName(diff.Name(db_.catalog()));
    DELTAMON_RETURN_IF_ERROR(run_differential(diff, &produced));
    diff_span.AddField("tuples_consumed",
                       static_cast<int64_t>(side->size()));
    diff_span.AddField("tuples_produced",
                       static_cast<int64_t>(produced.size()));
    ++stats.differentials_executed;
    stats.tuples_propagated += produced.size();
    out->trace.push_back(TraceEntry{diff.target, diff.influent,
                                    diff.reads_plus, diff.produces_plus,
                                    side->size(), produced.size()});

    if (!diff.produces_plus) {
      // §7.2: a candidate deletion still derivable in the new state must
      // not be propagated — otherwise ∪Δ could cancel a genuine insertion
      // and the rule would under-react, which is unacceptable. (The dual
      // over-approximation on the plus side is harmless here and handled
      // at strict roots below.)
      for (auto it = produced.begin(); it != produced.end();) {
        DELTAMON_ASSIGN_OR_RETURN(
            bool still_there,
            evaluator.Derivable(rel, objectlog::EvalState::kNew, *it));
        if (still_there) {
          ++stats.filtered_minus;
          it = produced.erase(it);
        } else {
          ++it;
        }
      }
    }
    DeltaSet contribution =
        diff.produces_plus ? DeltaSet(std::move(produced), TupleSet{})
                           : DeltaSet(TupleSet{}, std::move(produced));
    acc.DeltaUnion(contribution);
  }

  // Fixpoint iteration over the self-edges: the frontier of fresh changes
  // is re-exposed as this node's Δ-set (via the overlay) and the recursive
  // differentials re-run until nothing new is derived (insertions:
  // semi-naive; deletions: DRed-style, with the §7.2 rederivability filter
  // pruning tuples still derivable through surviving paths).
  if (!self_edges.empty() && !acc.empty()) {
    DELTAMON_OBS_SPAN(fixpoint_span, "propagation", "fixpoint");
    overlay_slot = acc;
    TupleSet total_plus = acc.plus();
    TupleSet total_minus = acc.minus();
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
        ++stats.differentials_executed;
        stats.tuples_propagated += produced.size();
        out->trace.push_back(
            TraceEntry{diff.target, diff.influent, diff.reads_plus,
                       diff.produces_plus, side.size(), produced.size()});
        for (const Tuple& t : produced) {
          if (diff.produces_plus) {
            if (!total_plus.contains(t)) fresh_plus.insert(t);
          } else {
            if (total_minus.contains(t)) continue;
            DELTAMON_ASSIGN_OR_RETURN(
                bool still_there,
                evaluator.Derivable(rel, objectlog::EvalState::kNew, t));
            if (still_there) {
              ++stats.filtered_minus;
            } else {
              fresh_minus.insert(t);
            }
          }
        }
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

  // Materialized mode: node Δ-sets must be exact nets, because the extent
  // is maintained by applying them and parents reconstruct this node's OLD
  // state by rolling its Δ back — an over-approximated Δ+ entry (a tuple
  // that was already derivable) would wrongly vanish from the
  // reconstructed old state. The node's own extent has not been applied
  // yet, so it IS the old state: one hash probe filters each candidate.
  // (Without views this filter is unnecessary: old states of derived nodes
  // are re-evaluated from base relations.)
  auto self_view = view_map.find(rel);
  if (self_view != view_map.end() && !acc.plus().empty()) {
    const BaseRelation* old_extent = self_view->second;
    TupleSet kept;
    kept.reserve(acc.plus().size());
    for (const Tuple& t : acc.plus()) {
      if (old_extent->Contains(t)) {
        ++stats.filtered_plus;
      } else {
        kept.insert(t);
      }
    }
    acc = DeltaSet(std::move(kept), acc.minus());
  }

  // Strict-semantics filter at monitored roots (§7.2): drop insertions
  // whose condition instance was already true in the old state.
  const RootSpec* root_spec = nullptr;
  for (const RootSpec& root : network_.roots()) {
    if (root.relation == rel) {
      root_spec = &root;
      break;
    }
  }
  if (root_spec != nullptr && root_spec->strict && !acc.plus().empty()) {
    TupleSet kept;
    for (const Tuple& t : acc.plus()) {
      DELTAMON_ASSIGN_OR_RETURN(
          bool was_true,
          evaluator.Derivable(rel, objectlog::EvalState::kOld, t));
      if (was_true) {
        ++stats.filtered_plus;
      } else {
        kept.insert(t);
      }
    }
    acc = DeltaSet(std::move(kept), acc.minus());
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

Status Propagator::MergeNode(
    RelationId rel, NodeOutput* out, PropagationResult* result,
    std::unordered_map<RelationId, DeltaSet>* wave, size_t* wavefront,
    std::unordered_map<RelationId, size_t>* pending_parents) const {
  DELTAMON_RETURN_IF_ERROR(out->status);
  result->stats.differentials_executed += out->stats.differentials_executed;
  result->stats.differentials_skipped += out->stats.differentials_skipped;
  result->stats.tuples_propagated += out->stats.tuples_propagated;
  result->stats.filtered_plus += out->stats.filtered_plus;
  result->stats.filtered_minus += out->stats.filtered_minus;
  for (TraceEntry& e : out->trace) result->trace.push_back(e);

  if (options_.profiler != nullptr && !out->profile.empty()) {
    // Serial fold in fixed level order: the global profile and the node's
    // own profile see worker-private counters in a deterministic sequence,
    // so the merged result is bit-identical at any thread count.
    const NetworkNode& profiled = network_.nodes().at(rel);
    profiled.profile.Merge(out->profile);
    options_.profiler->Merge(out->profile);
  }

  if (options_.lineage && !out->lineage.empty()) {
    // Same serial level-order fold as the profiles: parent vectors are
    // appended deterministically, and Export sorts anyway, so lineage is
    // bit-identical at any thread count.
    result->lineage.Merge(std::move(out->lineage));
  }

  DeltaSet& acc = out->acc;
  if (views_ != nullptr && !acc.empty()) {
    DELTAMON_RETURN_IF_ERROR(views_->Apply(rel, acc));
  }
  if (!acc.empty()) {
    *wavefront += acc.size();
    (*wave)[rel] = std::move(acc);
    result->stats.peak_wavefront_tuples =
        std::max(result->stats.peak_wavefront_tuples, *wavefront);
  }

  // Wave-front discard: this node has consumed its children; a derived
  // child whose last parent is done can release its Δ-set (base Δ-sets
  // stay: OLD-state rollback reads them for the rest of the wave).
  const NetworkNode& node = network_.nodes().at(rel);
  std::vector<RelationId> children;
  for (size_t edge : node.in_edges) {
    RelationId child = network_.differentials()[edge].influent;
    if (std::find(children.begin(), children.end(), child) ==
        children.end()) {
      children.push_back(child);
    }
  }
  for (RelationId child : children) {
    size_t& remaining = pending_parents->at(child);
    if (remaining > 0) --remaining;
    if (remaining != 0) continue;
    const NetworkNode& child_node = network_.nodes().at(child);
    if (child_node.is_base || result->root_deltas.contains(child)) continue;
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

  // Remaining parents per node, for wave-front discarding.
  std::unordered_map<RelationId, size_t> pending_parents;
  for (const auto& [rel, node] : network_.nodes()) {
    pending_parents[rel] = node.parents.size();
  }

  // The pool's size is the parallelism; no pool is the serial algorithm.
  // Workers keep private EvalCaches — pure memoization, so duplicated
  // entries cost at most repeated work.
  common::ThreadPool* pool = options_.pool;
  const size_t num_workers = pool != nullptr ? pool->num_workers() : 1;
  // Evaluation caches: by default one fresh EvalCache per worker; a caller
  // that passes PropagationOptions::caches keeps them across waves, so
  // indexed recursive-fixpoint materializations survive when nothing they
  // were computed from changed. The drop predicate is conservative: kOld
  // extents always go (their logical rollback read this wave's Δ-sets),
  // kNew extents go when the relation's dependency closure touches a
  // changed base relation — or a foreign function, whose extent may drift
  // between waves without a recorded delta.
  std::vector<objectlog::EvalCache> local_caches;
  std::vector<objectlog::EvalCache>* caches = options_.caches;
  if (caches == nullptr || caches->size() < num_workers) {
    local_caches.resize(num_workers);
    caches = &local_caches;
  } else {
    std::unordered_set<RelationId> changed;
    for (const auto& [rel, delta] : base_deltas) {
      if (!delta.empty()) changed.insert(rel);
    }
    auto inputs_changed = [&](RelationId rel) {
      std::unordered_set<RelationId> visited;
      std::vector<RelationId> frontier{rel};
      while (!frontier.empty()) {
        RelationId cur = frontier.back();
        frontier.pop_back();
        if (!visited.insert(cur).second) continue;
        if (changed.contains(cur)) return true;
        if (registry_.GetForeign(cur) != nullptr) return true;
        if (const objectlog::AggregateDef* agg =
                registry_.GetAggregate(cur)) {
          frontier.push_back(agg->source);
          continue;
        }
        if (const std::vector<objectlog::Clause>* clauses =
                registry_.GetClauses(cur)) {
          for (RelationId dep :
               objectlog::DerivedRegistry::DirectDependencies(*clauses)) {
            frontier.push_back(dep);
          }
        }
      }
      return false;
    };
    for (objectlog::EvalCache& cache : *caches) {
      cache.BeginWave([&](RelationId rel, objectlog::EvalState state) {
        return state == objectlog::EvalState::kOld || inputs_changed(rel);
      });
    }
  }

  size_t wavefront = 0;  // tuples held in intermediate (derived) Δ-sets
  const auto& levels = network_.levels();
  std::vector<NodeOutput> outputs;
  for (size_t lvl = 1; lvl < levels.size(); ++lvl) {
    DELTAMON_OBS_SCOPED_TIMER(level_timer, "propagator.level_ns");
    const std::vector<RelationId>& level_nodes = levels[lvl];
    if (num_workers <= 1 || level_nodes.size() <= 1) {
      for (RelationId rel : level_nodes) {
        NodeOutput out;
        out.status =
            ProcessNode(rel, lvl, wave, view_map, &(*caches)[0], &out);
        DELTAMON_RETURN_IF_ERROR(MergeNode(rel, &out, &result, &wave,
                                           &wavefront, &pending_parents));
      }
    } else {
      // Level barrier: every node of the level evaluates against the same
      // frozen wave, then the outputs merge in the level's node order —
      // the order the serial loop would have used.
      outputs.clear();
      outputs.resize(level_nodes.size());
      // Pool workers evaluate on behalf of the caller's request: its trace
      // scope rides along with each task, as the per-worker caches do.
      const obs::TraceScope scope = obs::CurrentTraceScope();
      pool->Run(level_nodes.size(), [&](size_t i, size_t worker) {
        obs::ScopedTrace trace(scope);
        outputs[i].status = ProcessNode(level_nodes[i], lvl, wave, view_map,
                                        &(*caches)[worker], &outputs[i]);
      });
      for (size_t i = 0; i < level_nodes.size(); ++i) {
        DELTAMON_RETURN_IF_ERROR(MergeNode(level_nodes[i], &outputs[i],
                                           &result, &wave, &wavefront,
                                           &pending_parents));
      }
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
