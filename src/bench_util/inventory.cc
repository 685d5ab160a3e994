#include "bench_util/inventory.h"

namespace deltamon::workload {

using objectlog::ArithOp;
using objectlog::Clause;
using objectlog::CompareOp;
using objectlog::Literal;
using objectlog::Term;

namespace {

ColumnType IntCol() { return ColumnType{ValueKind::kInt, kInvalidTypeId}; }
ColumnType ObjCol(TypeId type) { return ColumnType{ValueKind::kObject, type}; }

/// Defines `cnd` as the paper's monitor condition over `s`:
///   cnd(I) <- quantity(I,Q) AND threshold(I,T) AND Q < T
Status DefineCondition(Engine& engine, const InventorySchema& s,
                       RelationId cnd) {
  Clause c;
  c.head_relation = cnd;
  c.num_vars = 3;
  c.var_names = {"I", "Q", "T"};
  const int I = 0, Q = 1, T = 2;
  c.head_args = {Term::Var(I)};
  c.body = {
      Literal::Relation(s.quantity, {Term::Var(I), Term::Var(Q)}),
      Literal::Relation(s.threshold, {Term::Var(I), Term::Var(T)}),
      Literal::Compare(CompareOp::kLt, Term::Var(Q), Term::Var(T)),
  };
  return engine.registry.Define(cnd, std::move(c), engine.db.catalog());
}

}  // namespace

Result<InventorySchema> BuildInventory(Engine& engine,
                                       const InventoryConfig& config) {
  InventorySchema s;
  Catalog& cat = engine.db.catalog();
  DELTAMON_ASSIGN_OR_RETURN(s.item, cat.CreateType("item"));
  DELTAMON_ASSIGN_OR_RETURN(s.supplier, cat.CreateType("supplier"));

  auto int_fn = [&](const char* name, TypeId arg) {
    return cat.CreateStoredFunction(
        name, FunctionSignature{{ObjCol(arg)}, {IntCol()}});
  };
  DELTAMON_ASSIGN_OR_RETURN(s.quantity, int_fn("quantity", s.item));
  DELTAMON_ASSIGN_OR_RETURN(s.max_stock, int_fn("max_stock", s.item));
  DELTAMON_ASSIGN_OR_RETURN(s.min_stock, int_fn("min_stock", s.item));
  DELTAMON_ASSIGN_OR_RETURN(s.consume_freq, int_fn("consume_freq", s.item));
  DELTAMON_ASSIGN_OR_RETURN(
      s.supplies, cat.CreateStoredFunction(
                      "supplies",
                      FunctionSignature{{ObjCol(s.supplier)},
                                        {ObjCol(s.item)}}));
  DELTAMON_ASSIGN_OR_RETURN(
      s.delivery_time,
      cat.CreateStoredFunction(
          "delivery_time",
          FunctionSignature{{ObjCol(s.item), ObjCol(s.supplier)},
                            {IntCol()}}));

  // threshold(I) -> T, derived:
  //   threshold(I,T) <- consume_freq(I,C) AND supplies(S,I) AND
  //                     delivery_time(I,S,D) AND G = C*D AND
  //                     min_stock(I,M) AND T = G+M
  DELTAMON_ASSIGN_OR_RETURN(
      s.threshold,
      cat.CreateDerivedFunction(
          "threshold", FunctionSignature{{ObjCol(s.item)}, {IntCol()}}));
  {
    Clause c;
    c.head_relation = s.threshold;
    c.num_vars = 7;
    c.var_names = {"I", "T", "C", "S", "D", "G", "M"};
    const int I = 0, T = 1, C = 2, S = 3, D = 4, G = 5, M = 6;
    c.head_args = {Term::Var(I), Term::Var(T)};
    c.body = {
        Literal::Relation(s.consume_freq, {Term::Var(I), Term::Var(C)}),
        Literal::Relation(s.supplies, {Term::Var(S), Term::Var(I)}),
        Literal::Relation(s.delivery_time,
                          {Term::Var(I), Term::Var(S), Term::Var(D)}),
        Literal::Arith(ArithOp::kMul, Term::Var(G), Term::Var(C),
                       Term::Var(D)),
        Literal::Relation(s.min_stock, {Term::Var(I), Term::Var(M)}),
        Literal::Arith(ArithOp::kAdd, Term::Var(T), Term::Var(G),
                       Term::Var(M)),
    };
    DELTAMON_RETURN_IF_ERROR(engine.registry.Define(s.threshold, std::move(c),
                                                    cat));
  }

  // cnd_monitor_items() -> item, derived:
  //   cnd_monitor_items(I) <- quantity(I,Q) AND threshold(I,T) AND Q < T
  DELTAMON_ASSIGN_OR_RETURN(
      s.cnd_monitor_items,
      cat.CreateDerivedFunction(
          "cnd_monitor_items", FunctionSignature{{}, {ObjCol(s.item)}}));
  DELTAMON_RETURN_IF_ERROR(DefineCondition(engine, s, s.cnd_monitor_items));

  // Population (paper §3.1, scaled to num_items).
  for (size_t i = 0; i < config.num_items; ++i) {
    DELTAMON_ASSIGN_OR_RETURN(Oid item, cat.CreateObject(s.item));
    DELTAMON_ASSIGN_OR_RETURN(Oid sup, cat.CreateObject(s.supplier));
    s.items.push_back(item);
    s.suppliers.push_back(sup);
    DELTAMON_RETURN_IF_ERROR(SetFn(engine, s.max_stock, item,
                                   config.max_stock));
    DELTAMON_RETURN_IF_ERROR(SetFn(engine, s.min_stock, item,
                                   config.min_stock));
    DELTAMON_RETURN_IF_ERROR(SetFn(engine, s.consume_freq, item,
                                   config.consume_freq));
    DELTAMON_RETURN_IF_ERROR(SetFn(engine, s.quantity, item,
                                   config.initial_quantity));
    DELTAMON_RETURN_IF_ERROR(engine.db.Set(s.supplies, Tuple{Value(sup)},
                                           Tuple{Value(item)}));
    DELTAMON_RETURN_IF_ERROR(
        engine.db.Set(s.delivery_time, Tuple{Value(item), Value(sup)},
                      Tuple{Value(config.delivery_time)}));
  }
  if (config.commit) DELTAMON_RETURN_IF_ERROR(engine.db.Commit());
  return s;
}

Result<std::unique_ptr<MonitorSetup>> SetupMonitorItems(
    size_t num_items, rules::MonitorMode mode, rules::Semantics semantics,
    bool propagate_deletions) {
  auto setup = std::make_unique<MonitorSetup>();
  setup->engine = std::make_unique<Engine>();
  setup->engine->rules.SetMode(mode);
  InventoryConfig config;
  config.num_items = num_items;
  DELTAMON_ASSIGN_OR_RETURN(setup->schema,
                            BuildInventory(*setup->engine, config));
  rules::RuleOptions options;
  options.semantics = semantics;
  options.propagate_deletions = propagate_deletions;
  MonitorSetup* raw = setup.get();
  DELTAMON_ASSIGN_OR_RETURN(
      rules::RuleId rule,
      setup->engine->rules.CreateRule(
          "monitor_items", setup->schema.cnd_monitor_items,
          [raw](Database&, const Tuple&, const std::vector<Tuple>& items) {
            raw->fired += items.size();
            return Status::OK();
          },
          options));
  DELTAMON_RETURN_IF_ERROR(setup->engine->rules.Activate(rule));
  return setup;
}

Result<std::unique_ptr<FleetSetup>> SetupMonitorFleet(
    size_t num_items, size_t num_rules, rules::MonitorMode mode) {
  auto setup = std::make_unique<FleetSetup>();
  setup->engine = std::make_unique<Engine>();
  setup->engine->rules.SetMode(mode);
  InventoryConfig config;
  config.num_items = num_items;
  DELTAMON_ASSIGN_OR_RETURN(setup->schema,
                            BuildInventory(*setup->engine, config));
  Catalog& cat = setup->engine->db.catalog();
  FleetSetup* raw = setup.get();
  for (size_t k = 0; k < num_rules; ++k) {
    const std::string suffix = "_" + std::to_string(k);
    DELTAMON_ASSIGN_OR_RETURN(
        RelationId cnd,
        cat.CreateDerivedFunction(
            "cnd_monitor_items" + suffix,
            FunctionSignature{{}, {ObjCol(setup->schema.item)}}));
    DELTAMON_RETURN_IF_ERROR(
        DefineCondition(*setup->engine, setup->schema, cnd));
    setup->conditions.push_back(cnd);
    DELTAMON_ASSIGN_OR_RETURN(
        rules::RuleId rule,
        setup->engine->rules.CreateRule(
            "monitor_items" + suffix, cnd,
            [raw](Database&, const Tuple&, const std::vector<Tuple>& items) {
              raw->fired += items.size();
              return Status::OK();
            },
            rules::RuleOptions{}));
    DELTAMON_RETURN_IF_ERROR(setup->engine->rules.Activate(rule));
  }
  return setup;
}

Status SetFn(Engine& engine, RelationId fn, Oid object, int64_t value) {
  return engine.db.Set(fn, Tuple{Value(object)}, Tuple{Value(value)});
}

Result<int64_t> GetFn(const Engine& engine, RelationId fn, Oid object) {
  const BaseRelation* rel = engine.db.catalog().GetBaseRelation(fn);
  if (rel == nullptr) return Status::InvalidArgument("not a stored function");
  int64_t out = 0;
  bool found = false;
  rel->ForEachWithValue(0, Value(object), [&](const Tuple& t) {
    if (t[1].is_int()) {
      out = t[1].AsInt();
      found = true;
    }
    return false;
  });
  if (!found) return Status::NotFound("no value for object");
  return out;
}

}  // namespace deltamon::workload
