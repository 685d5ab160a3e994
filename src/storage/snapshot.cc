#include "storage/snapshot.h"

#include <algorithm>

namespace deltamon {

namespace {

bool PatternIsFull(const ScanPattern& pattern) {
  return std::none_of(pattern.begin(), pattern.end(),
                      [](const auto& p) { return p.has_value(); });
}

}  // namespace

void ReadFootprint::AddPattern(const ScanPattern& pattern) {
  if (full) return;
  for (const ScanPattern& existing : patterns) {
    if (existing == pattern) return;
  }
  if (patterns.size() >= kMaxPatterns) {
    AddFull();
    return;
  }
  patterns.push_back(pattern);
}

bool ReadFootprint::Overlaps(const DeltaSet& written) const {
  if (written.empty()) return false;
  if (full) return true;
  for (const ScanPattern& pattern : patterns) {
    for (const Tuple& t : written.plus()) {
      if (TupleMatchesPattern(t, pattern)) return true;
    }
    for (const Tuple& t : written.minus()) {
      if (TupleMatchesPattern(t, pattern)) return true;
    }
  }
  return false;
}

void TxnSnapshot::Reset(uint64_t version) {
  begin_version_ = version;
  explicit_begin_ = false;
  writes_.clear();
  reads_.clear();
}

DeltaView TxnSnapshot::View(RelationId rel) const {
  auto it = writes_.find(rel);
  return DeltaView::Forward(it == writes_.end() ? nullptr : &it->second);
}

bool TxnSnapshot::ViewContains(const BaseRelation& base, RelationId rel,
                               const Tuple& t) const {
  return View(rel).Contains(t, [&base](const Tuple& u) {
    return base.Contains(u);
  });
}

void TxnSnapshot::RecordScan(RelationId rel, const ScanPattern& pattern) {
  ReadFootprint& fp = reads_[rel];
  if (PatternIsFull(pattern)) {
    fp.AddFull();
  } else {
    fp.AddPattern(pattern);
  }
}

void TxnSnapshot::RecordPointRead(RelationId rel, const Tuple& t) {
  ScanPattern pattern(t.arity());
  for (size_t i = 0; i < t.arity(); ++i) pattern[i] = t[i];
  reads_[rel].AddPattern(pattern);
}

Result<const BaseRelation*> TxnSnapshot::CheckedBase(const Catalog& catalog,
                                                     RelationId rel,
                                                     const Tuple& t) const {
  const BaseRelation* base = catalog.GetBaseRelation(rel);
  if (base == nullptr) {
    return Status::InvalidArgument("relation id " + std::to_string(rel) +
                                   " is not a stored function");
  }
  DELTAMON_RETURN_IF_ERROR(base->schema().TypeCheck(t));
  return base;
}

Status TxnSnapshot::BufferInsert(const Catalog& catalog, RelationId rel,
                                 const Tuple& t) {
  DELTAMON_ASSIGN_OR_RETURN(const BaseRelation* base,
                            CheckedBase(catalog, rel, t));
  // The membership decision below depends on the shared store; protect it
  // with a point read so a concurrent commit flipping it aborts us.
  RecordPointRead(rel, t);
  if (ViewContains(*base, rel, t)) return Status::OK();  // set-semantics no-op
  DeltaSet& overlay = writes_[rel];
  overlay.ApplyInsert(t);  // cancels a buffered delete of a stored tuple
  if (overlay.empty()) writes_.erase(rel);
  return Status::OK();
}

Status TxnSnapshot::BufferDelete(const Catalog& catalog, RelationId rel,
                                 const Tuple& t) {
  DELTAMON_ASSIGN_OR_RETURN(const BaseRelation* base,
                            CheckedBase(catalog, rel, t));
  RecordPointRead(rel, t);
  if (!ViewContains(*base, rel, t)) return Status::OK();
  DeltaSet& overlay = writes_[rel];
  overlay.ApplyDelete(t);  // cancels a buffered insert, else records delete
  if (overlay.empty()) writes_.erase(rel);
  return Status::OK();
}

Status TxnSnapshot::BufferSet(const Catalog& catalog, RelationId rel,
                              const Tuple& args, const Tuple& results) {
  const BaseRelation* base = catalog.GetBaseRelation(rel);
  if (base == nullptr) {
    return Status::InvalidArgument("relation id " + std::to_string(rel) +
                                   " is not a stored function");
  }
  if (args.arity() + results.arity() != base->arity()) {
    return Status::TypeError("set " + base->name() + ": arity mismatch");
  }
  const Tuple replacement = args.Concat(results);
  DELTAMON_RETURN_IF_ERROR(base->schema().TypeCheck(replacement));

  // Collect the view tuples with this argument prefix. The prefix probe is
  // the read this statement depends on.
  ScanPattern pattern(base->arity());
  for (size_t i = 0; i < args.arity(); ++i) pattern[i] = args[i];
  RecordScan(rel, pattern);

  std::vector<Tuple> old_tuples;
  View(rel).Scan(
      pattern,
      [&](const auto& visit) { base->Scan(pattern, visit); },
      [&old_tuples](const Tuple& t) {
        old_tuples.push_back(t);
        return true;
      });
  DeltaSet& overlay = writes_[rel];
  for (const Tuple& t : old_tuples) overlay.ApplyDelete(t);
  overlay.ApplyInsert(replacement);
  if (overlay.empty()) writes_.erase(rel);
  return Status::OK();
}

}  // namespace deltamon
