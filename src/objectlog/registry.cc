#include "objectlog/registry.h"

#include <algorithm>
#include <iterator>

namespace deltamon::objectlog {

namespace {

/// Applies a head-variable substitution to a term of an inlined body:
/// variables that were head variables of the inlined clause map to the
/// caller's argument terms; other variables are shifted into fresh ids.
Term SubstituteTerm(const Term& term,
                    const std::unordered_map<int, Term>& head_subst,
                    int offset) {
  if (term.is_const()) return term;
  auto it = head_subst.find(term.var);
  if (it != head_subst.end()) return it->second;
  return Term::Var(term.var + offset);
}

}  // namespace

Status DerivedRegistry::Define(RelationId rel, Clause clause,
                               const Catalog& catalog) {
  if (!catalog.IsDerived(rel)) {
    return Status::InvalidArgument("relation '" + catalog.RelationName(rel) +
                                   "' is not a derived function");
  }
  if (clause.head_relation != rel) {
    return Status::InvalidArgument("clause head does not match relation");
  }
  if (aggregates_.contains(rel)) {
    return Status::AlreadyExists("relation '" + catalog.RelationName(rel) +
                                 "' is an aggregate view");
  }
  const FunctionSignature* sig = catalog.GetSignature(rel);
  if (sig != nullptr && clause.head_args.size() != sig->arity()) {
    return Status::InvalidArgument(
        "clause head arity " + std::to_string(clause.head_args.size()) +
        " does not match signature arity " + std::to_string(sig->arity()) +
        " of '" + catalog.RelationName(rel) + "'");
  }
  DELTAMON_RETURN_IF_ERROR(ValidateClause(clause, catalog));
  if (clause.profile_label.empty()) {
    clause.profile_label = catalog.RelationName(rel) + "#" +
                           std::to_string(clauses_[rel].size());
  }
  std::vector<Clause>& defs = clauses_[rel];
  defs.push_back(std::move(clause));
  AddEdges(rel, DirectDependencies(defs));
  ++version_;
  return Status::OK();
}

const std::vector<Clause>* DerivedRegistry::GetClauses(RelationId rel) const {
  auto it = clauses_.find(rel);
  return it == clauses_.end() ? nullptr : &it->second;
}

const char* AggregateFuncName(AggregateDef::Func func) {
  switch (func) {
    case AggregateDef::Func::kCount:
      return "count";
    case AggregateDef::Func::kSum:
      return "sum";
    case AggregateDef::Func::kMin:
      return "min";
    case AggregateDef::Func::kMax:
      return "max";
  }
  return "?";
}

Status DerivedRegistry::DefineAggregate(RelationId rel, AggregateDef def,
                                        const Catalog& catalog) {
  if (!catalog.IsDerived(rel)) {
    return Status::InvalidArgument("relation '" + catalog.RelationName(rel) +
                                   "' is not a derived function");
  }
  if (clauses_.contains(rel) || aggregates_.contains(rel)) {
    return Status::AlreadyExists("relation '" + catalog.RelationName(rel) +
                                 "' already has a definition");
  }
  const FunctionSignature* src_sig = catalog.GetSignature(def.source);
  if (src_sig == nullptr) {
    return Status::NotFound("aggregate source relation not found");
  }
  const size_t src_arity = src_sig->arity();
  for (size_t col : def.group_by) {
    if (col >= src_arity) {
      return Status::OutOfRange("group-by column out of range");
    }
  }
  if (def.func != AggregateDef::Func::kCount &&
      def.value_column >= src_arity) {
    return Status::OutOfRange("aggregate value column out of range");
  }
  const FunctionSignature* sig = catalog.GetSignature(rel);
  if (sig != nullptr && sig->arity() != def.group_by.size() + 1) {
    return Status::InvalidArgument(
        "aggregate view arity must be group-by columns + 1, got signature "
        "arity " +
        std::to_string(sig->arity()));
  }
  AddEdges(rel, {def.source});
  aggregates_.emplace(rel, std::move(def));
  ++version_;
  return Status::OK();
}

const AggregateDef* DerivedRegistry::GetAggregate(RelationId rel) const {
  auto it = aggregates_.find(rel);
  return it == aggregates_.end() ? nullptr : &it->second;
}

Status DerivedRegistry::RegisterForeign(RelationId rel, ForeignImpl impl,
                                        const Catalog& catalog) {
  if (!catalog.IsForeign(rel)) {
    return Status::InvalidArgument("relation '" + catalog.RelationName(rel) +
                                   "' is not a foreign function");
  }
  if (foreign_.contains(rel)) {
    return Status::AlreadyExists("foreign function '" +
                                 catalog.RelationName(rel) +
                                 "' already has an implementation");
  }
  foreign_.emplace(rel, std::move(impl));
  return Status::OK();
}

const ForeignImpl* DerivedRegistry::GetForeign(RelationId rel) const {
  auto it = foreign_.find(rel);
  return it == foreign_.end() ? nullptr : &it->second;
}

bool DerivedRegistry::IsRecursive(RelationId rel) const {
  const std::vector<RelationId>& reach = Reach(rel);
  return std::binary_search(reach.begin(), reach.end(), rel);
}

const std::vector<RelationId>& DerivedRegistry::Reach(RelationId rel) const {
  static const std::vector<RelationId> kNone;
  auto it = reach_.find(rel);
  return it == reach_.end() ? kNone : it->second;
}

void DerivedRegistry::AddEdges(RelationId rel,
                               const std::vector<RelationId>& targets) {
  std::vector<RelationId> added = targets;
  for (RelationId target : targets) {
    const std::vector<RelationId>& further = Reach(target);
    added.insert(added.end(), further.begin(), further.end());
  }
  std::sort(added.begin(), added.end());
  added.erase(std::unique(added.begin(), added.end()), added.end());
  // Only `rel` and the relations already reaching it reach more now; a
  // cycle this closes puts `rel` in its own reach.
  reach_.try_emplace(rel);
  for (auto& [from, reach] : reach_) {
    if (from != rel && !std::binary_search(reach.begin(), reach.end(), rel)) {
      continue;
    }
    std::vector<RelationId> merged;
    merged.reserve(reach.size() + added.size());
    std::set_union(reach.begin(), reach.end(), added.begin(), added.end(),
                   std::back_inserter(merged));
    reach = std::move(merged);
  }
}

Result<std::vector<Clause>> DerivedRegistry::Expand(
    RelationId rel, const std::unordered_set<RelationId>& keep) const {
  const std::vector<Clause>* defs = GetClauses(rel);
  if (defs == nullptr) {
    return Status::NotFound("derived relation id " + std::to_string(rel) +
                            " has no clauses");
  }
  std::vector<Clause> out;
  for (const Clause& clause : *defs) {
    DELTAMON_ASSIGN_OR_RETURN(std::vector<Clause> expanded,
                              ExpandClause(clause, keep));
    for (Clause& c : expanded) out.push_back(std::move(c));
  }
  return out;
}

Result<std::vector<Clause>> DerivedRegistry::ExpandClause(
    const Clause& clause, const std::unordered_set<RelationId>& keep) const {
  // Find the first expandable literal: a positive reference to a derived
  // relation that has clauses and is not protected by `keep`.
  for (size_t i = 0; i < clause.body.size(); ++i) {
    const Literal& lit = clause.body[i];
    if (lit.kind != Literal::Kind::kRelation || lit.negated) continue;
    if (keep.contains(lit.relation)) continue;
    const std::vector<Clause>* defs = GetClauses(lit.relation);
    if (defs == nullptr) continue;  // base relation
    // Recursive relations stay as sub-relation references (fixpoint
    // nodes); sibling occurrences of a non-recursive relation are fine.
    if (IsRecursive(lit.relation)) continue;

    std::vector<Clause> results;
    for (const Clause& def : *defs) {
      // Inline `def` in place of body literal i. def's head variables map
      // to the literal's argument terms; def's other variables shift to
      // fresh ids beyond clause.num_vars.
      std::unordered_map<int, Term> head_subst;
      Clause merged;
      merged.head_relation = clause.head_relation;
      merged.head_args = clause.head_args;
      merged.num_vars = clause.num_vars;
      merged.var_names = clause.var_names;
      merged.var_names.resize(clause.num_vars);

      std::vector<Literal> extra;  // equality checks for constant heads
      for (size_t k = 0; k < def.head_args.size(); ++k) {
        const Term& h = def.head_args[k];
        const Term& a = lit.args[k];
        if (h.is_var() && !head_subst.contains(h.var)) {
          head_subst[h.var] = a;
        } else {
          // Repeated head variable or constant head: require equality
          // between the caller's term and the substituted/constant term.
          Term prev = h.is_var() ? head_subst[h.var] : h;
          extra.push_back(Literal::Compare(CompareOp::kEq, a, prev));
        }
      }
      int offset = merged.num_vars;
      // Allocate fresh ids for def's non-head variables. Shifted ids are
      // def_var + offset; reserve space for all of def's vars (some slots
      // unused where head vars were substituted away).
      merged.num_vars += def.num_vars;
      merged.var_names.resize(merged.num_vars);
      for (int v = 0; v < def.num_vars; ++v) {
        if (!head_subst.contains(v)) {
          std::string name =
              (static_cast<size_t>(v) < def.var_names.size() &&
               !def.var_names[v].empty())
                  ? def.var_names[v]
                  : "V" + std::to_string(v);
          merged.var_names[v + offset] = name + "'";
        }
      }

      for (size_t j = 0; j < clause.body.size(); ++j) {
        if (j == i) {
          for (const Literal& dl : def.body) {
            Literal nl = dl;
            for (Term& t : nl.args) t = SubstituteTerm(t, head_subst, offset);
            merged.body.push_back(std::move(nl));
          }
          for (const Literal& el : extra) merged.body.push_back(el);
        } else {
          merged.body.push_back(clause.body[j]);
        }
      }
      // Recurse: the merged clause may still contain expandable literals
      // (from both the original tail and the inlined body).
      DELTAMON_ASSIGN_OR_RETURN(std::vector<Clause> sub,
                                ExpandClause(merged, keep));
      for (Clause& c : sub) results.push_back(std::move(c));
    }
    return results;
  }
  // Nothing to expand.
  return std::vector<Clause>{clause};
}

std::vector<RelationId> DerivedRegistry::DirectDependencies(
    const std::vector<Clause>& clauses) {
  std::vector<RelationId> out;
  std::unordered_set<RelationId> seen;
  for (const Clause& clause : clauses) {
    for (const Literal& lit : clause.body) {
      if (lit.kind != Literal::Kind::kRelation) continue;
      if (seen.insert(lit.relation).second) out.push_back(lit.relation);
    }
  }
  return out;
}

}  // namespace deltamon::objectlog
