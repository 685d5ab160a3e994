#include "core/network.h"

#include <algorithm>
#include <cstdio>

namespace deltamon::core {

using objectlog::Clause;
using objectlog::EvalState;
using objectlog::Literal;
using objectlog::RelationRole;

std::string PartialDifferential::Name(const Catalog& catalog) const {
  if (aggregate) {
    return "Δ" + catalog.RelationName(target) + "/Δ" +
           catalog.RelationName(influent) + " [aggregate]";
  }
  std::string out = "Δ";
  out += produces_plus ? "+" : "-";
  out += catalog.RelationName(target);
  out += "/Δ";
  out += reads_plus ? "+" : "-";
  out += catalog.RelationName(influent);
  return out;
}

namespace {

/// Recursively registers `rel` and everything below it as network nodes.
Status AddNode(RelationId rel, const objectlog::DerivedRegistry& registry,
               const Catalog& catalog, const BuildOptions& options,
               std::unordered_map<RelationId, NetworkNode>& nodes,
               std::unordered_set<RelationId>& in_progress) {
  if (nodes.contains(rel)) return Status::OK();
  NetworkNode node;
  node.relation = rel;
  // Stored and foreign functions are both leaves: their Δ-sets come from
  // the transaction log / user-injected differentials, never from
  // differencing.
  if (!catalog.IsDerived(rel)) {
    node.is_base = true;
    node.level = 0;
    nodes.emplace(rel, std::move(node));
    return Status::OK();
  }
  in_progress.insert(rel);
  // Aggregate views (§8 extension): a single child — the source relation.
  if (const objectlog::AggregateDef* agg = registry.GetAggregate(rel)) {
    node.aggregate = agg;
    if (in_progress.contains(agg->source)) {
      return Status::Unimplemented(
          "recursion through an aggregate is not stratifiable");
    }
    DELTAMON_RETURN_IF_ERROR(AddNode(agg->source, registry, catalog, options,
                                     nodes, in_progress));
    node.level = nodes.at(agg->source).level + 1;
    in_progress.erase(rel);
    nodes.emplace(rel, std::move(node));
    return Status::OK();
  }
  DELTAMON_ASSIGN_OR_RETURN(node.clauses,
                            registry.Expand(rel, options.keep));
  int max_child = -1;
  for (const Clause& clause : node.clauses) {
    for (const Literal& lit : clause.body) {
      if (lit.kind != Literal::Kind::kRelation) continue;
      // Linear (self-)recursion: a self-reference is a back edge, handled
      // by fixpoint iteration at this node; it does not affect the level.
      // Mutual recursion has no valid breadth-first level assignment.
      if (lit.relation == rel) {
        if (lit.negated) {
          return Status::Unimplemented(
              "recursion through negation is not stratifiable");
        }
        continue;
      }
      if (in_progress.contains(lit.relation)) {
        return Status::Unimplemented(
            "only linear self-recursion is supported (mutually recursive "
            "relations have no bottom-up level order)");
      }
      DELTAMON_RETURN_IF_ERROR(AddNode(lit.relation, registry, catalog,
                                       options, nodes, in_progress));
      max_child = std::max(max_child, nodes.at(lit.relation).level);
    }
  }
  node.level = max_child + 1;
  in_progress.erase(rel);
  nodes.emplace(rel, std::move(node));
  return Status::OK();
}

}  // namespace

Result<PropagationNetwork> PropagationNetwork::Build(
    const std::vector<RootSpec>& roots,
    const objectlog::DerivedRegistry& registry, const Catalog& catalog,
    const BuildOptions& options) {
  PropagationNetwork net;
  net.roots_ = roots;

  // 1. Nodes: every relation reachable from a root through (expanded)
  // clause bodies.
  std::unordered_set<RelationId> in_progress;
  for (const RootSpec& root : roots) {
    if (!catalog.IsDerived(root.relation)) {
      return Status::InvalidArgument(
          "condition '" + catalog.RelationName(root.relation) +
          "' must be a derived relation");
    }
    DELTAMON_RETURN_IF_ERROR(AddNode(root.relation, registry, catalog,
                                     options, net.nodes_, in_progress));
  }

  // 2. Required change polarities, top-down to a fixpoint: a parent that
  // needs insertions needs Δ+ of positive occurrences and Δ− of negated
  // occurrences; dually for deletions (paper §4.4: negation swaps signs,
  // Δ(~Q) = <Δ−Q, Δ+Q>).
  for (const RootSpec& root : roots) {
    NetworkNode& node = net.nodes_.at(root.relation);
    node.needs_plus = true;
    node.needs_minus = node.needs_minus || root.needs_minus;
  }
  bool changed = true;
  while (changed) {
    changed = false;
    for (auto& [rel, node] : net.nodes_) {
      if (node.is_base || (!node.needs_plus && !node.needs_minus)) continue;
      if (node.aggregate != nullptr) {
        // Any change to the aggregate value needs both sides of the
        // source's Δ-set (an insertion can lower a MIN, a deletion can
        // lower a COUNT, ...).
        NetworkNode& child = net.nodes_.at(node.aggregate->source);
        if (!child.needs_plus || !child.needs_minus) {
          child.needs_plus = true;
          child.needs_minus = true;
          changed = true;
        }
        continue;
      }
      for (const Clause& clause : node.clauses) {
        for (const Literal& lit : clause.body) {
          if (lit.kind != Literal::Kind::kRelation) continue;
          NetworkNode& child = net.nodes_.at(lit.relation);
          bool want_plus = lit.negated ? node.needs_minus : node.needs_plus;
          bool want_minus = lit.negated ? node.needs_plus : node.needs_minus;
          if (want_plus && !child.needs_plus) {
            child.needs_plus = true;
            changed = true;
          }
          if (want_minus && !child.needs_minus) {
            child.needs_minus = true;
            changed = true;
          }
        }
      }
    }
  }

  // 3. Partial differentials: for each derived node P and each relation
  // literal occurrence X in its clauses, generate
  //   - a differential producing Δ+P: substitute the occurrence by the
  //     matching Δ-side of X and evaluate the other literals in the NEW
  //     state (§4.3), and
  //   - a differential producing Δ−P: substitute by the opposite Δ-side
  //     and evaluate the other literals in the OLD state (§4.4),
  // each only when the node needs that polarity.
  for (auto& [rel, node] : net.nodes_) {
    if (node.is_base) continue;
    if (node.aggregate != nullptr) {
      PartialDifferential diff;
      diff.target = rel;
      diff.influent = node.aggregate->source;
      diff.aggregate = true;
      node.in_edges.push_back(net.differentials_.size());
      net.differentials_.push_back(std::move(diff));
      continue;
    }
    for (size_t ci = 0; ci < node.clauses.size(); ++ci) {
      const Clause& clause = node.clauses[ci];
      for (size_t li = 0; li < clause.body.size(); ++li) {
        const Literal& lit = clause.body[li];
        if (lit.kind != Literal::Kind::kRelation) continue;
        const bool positive_occurrence = !lit.negated;
        for (bool produces_plus : {true, false}) {
          if (produces_plus && !node.needs_plus) continue;
          if (!produces_plus && !node.needs_minus) continue;
          PartialDifferential diff;
          diff.target = rel;
          diff.influent = lit.relation;
          diff.produces_plus = produces_plus;
          diff.reads_plus = positive_occurrence == produces_plus;
          diff.clause_index = ci;
          diff.literal_index = li;
          diff.clause = clause;
          Literal& delta_lit = diff.clause.body[li];
          delta_lit.role = diff.reads_plus ? RelationRole::kDeltaPlus
                                           : RelationRole::kDeltaMinus;
          delta_lit.negated = false;
          // Net Δ-sets make the implied presence checks redundant: a tuple
          // in Δ−X is certainly absent from X_new, one in Δ+X absent from
          // X_old, so the substituted negated occurrence needs no residual
          // ~X test.
          EvalState other_state =
              produces_plus ? EvalState::kNew : EvalState::kOld;
          for (size_t k = 0; k < diff.clause.body.size(); ++k) {
            if (k == li) continue;
            Literal& other = diff.clause.body[k];
            if (other.kind == Literal::Kind::kRelation) {
              other.state = other_state;
            }
          }
          // The differential's name is the clause's stable identity in
          // per-literal profiles ("Δcnd/Δ+quantity"); clause_index keeps
          // multi-clause conditions apart.
          diff.clause.profile_label =
              diff.Name(catalog) + "#" + std::to_string(ci);
          node.in_edges.push_back(net.differentials_.size());
          net.differentials_.push_back(std::move(diff));
        }
      }
    }
  }

  // 4. Levels.
  int max_level = 0;
  for (const auto& [rel, node] : net.nodes_) {
    max_level = std::max(max_level, node.level);
  }
  net.levels_.resize(static_cast<size_t>(max_level) + 1);
  std::vector<RelationId> ids;
  ids.reserve(net.nodes_.size());
  for (const auto& [rel, node] : net.nodes_) ids.push_back(rel);
  std::sort(ids.begin(), ids.end());
  for (RelationId rel : ids) {
    net.levels_[static_cast<size_t>(net.nodes_.at(rel).level)].push_back(rel);
  }

  // 5. Wave-front schedule: each derived non-root child is released by its
  // last parent in level order — the merge that leaves it no reader — which
  // is the first parent to read it when the levels are walked backwards.
  // Roots keep their Δ-sets for the wave's result; the strict filter
  // follows the first RootSpec naming a root.
  std::unordered_set<RelationId> settled;  // roots and released children
  for (const RootSpec& root : roots) {
    if (settled.insert(root.relation).second) {
      net.nodes_.at(root.relation).strict_root = root.strict;
    }
  }
  for (auto level = net.levels_.rbegin(); level != net.levels_.rend();
       ++level) {
    for (auto rel = level->rbegin(); rel != level->rend(); ++rel) {
      NetworkNode& parent = net.nodes_.at(*rel);
      for (size_t edge : parent.in_edges) {
        const RelationId child = net.differentials_[edge].influent;
        if (!net.nodes_.at(child).is_base && settled.insert(child).second) {
          parent.releases.push_back(child);
        }
      }
    }
  }

  // 6. Batch-kernel plans: each differential is planned once, here, as an
  // ordinary query assuming few changes to a single influent (§1).
  net.CompileKernelPlans(registry, catalog);
  return net;
}

void PropagationNetwork::CompileKernelPlans(
    const objectlog::DerivedRegistry& registry, const Catalog& catalog) {
  kernel_plans_version_ = catalog.stats().version();
  for (PartialDifferential& diff : differentials_) {
    if (diff.aggregate) continue;
    for (bool lineage : {false, true}) {
      diff.kernel_plans[lineage] = objectlog::KernelPlan::Compile(
          diff.clause, registry, catalog, lineage);
    }
  }
}

void PropagationNetwork::RefreshKernelPlans(
    const objectlog::DerivedRegistry& registry, const Catalog& catalog) {
  if (kernel_plans_version_ != catalog.stats().version()) {
    CompileKernelPlans(registry, catalog);
  }
}

std::vector<RelationId> PropagationNetwork::BaseInfluents() const {
  std::vector<RelationId> out;
  if (levels_.empty()) return out;
  for (RelationId rel : levels_[0]) {
    if (nodes_.at(rel).is_base) out.push_back(rel);
  }
  return out;
}

std::string PropagationNetwork::ToString(const Catalog& catalog) const {
  std::string out;
  for (size_t lvl = 0; lvl < levels_.size(); ++lvl) {
    out += "level " + std::to_string(lvl) + ":";
    for (RelationId rel : levels_[lvl]) {
      const NetworkNode& node = nodes_.at(rel);
      out += " " + catalog.RelationName(rel);
      out += node.is_base ? "[base" : "[derived";
      if (node.needs_plus) out += ",+";
      if (node.needs_minus) out += ",-";
      out += "]";
    }
    out += "\n";
  }
  for (const PartialDifferential& diff : differentials_) {
    out += "  " + diff.Name(catalog);
    if (!diff.aggregate) out += ": " + diff.clause.ToString(catalog);
    out += "\n";
  }
  return out;
}

std::string PropagationNetwork::ToDot(const Catalog& catalog,
                                      RelationId root) const {
  // With a root given, keep only the subgraph feeding it: walk influent
  // edges down from the root (in_edges name each node's children).
  std::unordered_set<RelationId> keep;
  if (root != kInvalidRelationId) {
    std::vector<RelationId> frontier{root};
    while (!frontier.empty()) {
      RelationId rel = frontier.back();
      frontier.pop_back();
      if (!keep.insert(rel).second) continue;
      auto it = nodes_.find(rel);
      if (it == nodes_.end()) continue;
      for (size_t edge : it->second.in_edges) {
        frontier.push_back(differentials_[edge].influent);
      }
    }
  }
  auto kept = [&keep, root](RelationId rel) {
    return root == kInvalidRelationId || keep.contains(rel);
  };

  std::string out = "digraph propagation {\n";
  out += "  rankdir=BT;\n";
  out += "  node [shape=box, fontname=\"monospace\"];\n";
  // Emit nodes in level order so the output is deterministic.
  for (const auto& level : levels_) {
    for (RelationId rel : level) {
      if (!kept(rel)) continue;
      const NetworkNode& node = nodes_.at(rel);
      std::string label = catalog.RelationName(rel);
      label += node.is_base ? "\\n[base]" : "\\n[derived]";
      char stats[160];
      std::snprintf(stats, sizeof(stats),
                    "\\ninv=%llu consumed=%llu\\nΔ+=%llu Δ-=%llu\\n%.3f ms",
                    static_cast<unsigned long long>(node.stats.invocations),
                    static_cast<unsigned long long>(
                        node.stats.tuples_consumed),
                    static_cast<unsigned long long>(node.stats.plus_produced),
                    static_cast<unsigned long long>(
                        node.stats.minus_produced),
                    static_cast<double>(node.stats.cumulative_ns) / 1e6);
      label += stats;
      out += "  n" + std::to_string(rel) + " [label=\"" + label + "\"";
      if (node.is_base) out += ", style=filled, fillcolor=lightgrey";
      out += "];\n";
    }
  }
  for (const PartialDifferential& diff : differentials_) {
    if (!kept(diff.target) || !kept(diff.influent)) continue;
    out += "  n" + std::to_string(diff.influent) + " -> n" +
           std::to_string(diff.target);
    std::string label = diff.aggregate
                            ? std::string("agg")
                            : std::string("Δ") +
                                  (diff.reads_plus ? "+" : "-") + "→Δ" +
                                  (diff.produces_plus ? "+" : "-");
    out += " [label=\"" + label + "\"";
    if (diff.aggregate) out += ", style=dashed";
    out += "];\n";
  }
  out += "}\n";
  return out;
}

void PropagationNetwork::ResetStats() const {
  for (const auto& [rel, node] : nodes_) {
    node.stats.Reset();
    node.profile.Clear();
  }
}

}  // namespace deltamon::core
