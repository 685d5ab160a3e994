#ifndef DELTAMON_BENCH_UTIL_INVENTORY_H_
#define DELTAMON_BENCH_UTIL_INVENTORY_H_

#include <cstdint>
#include <vector>

#include "rules/engine.h"

namespace deltamon::workload {

/// Parameters for the paper's running inventory example (§3.1).
struct InventoryConfig {
  size_t num_items = 100;
  int64_t max_stock = 5000;
  int64_t min_stock = 100;
  int64_t consume_freq = 20;
  int64_t delivery_time = 2;
  /// threshold(i) = consume_freq * delivery_time + min_stock = 140 with the
  /// defaults; quantities start well above it so the rule is quiet.
  int64_t initial_quantity = 1000;
  /// Commit the population transaction (and run the check phase) at the
  /// end of BuildInventory.
  bool commit = true;
};

/// Handles to everything BuildInventory created.
struct InventorySchema {
  TypeId item = kInvalidTypeId;
  TypeId supplier = kInvalidTypeId;
  RelationId quantity = kInvalidRelationId;
  RelationId max_stock = kInvalidRelationId;
  RelationId min_stock = kInvalidRelationId;
  RelationId consume_freq = kInvalidRelationId;
  RelationId supplies = kInvalidRelationId;       // (supplier, item)
  RelationId delivery_time = kInvalidRelationId;  // (item, supplier, int)
  RelationId threshold = kInvalidRelationId;      // derived (item) -> int
  RelationId cnd_monitor_items = kInvalidRelationId;  // derived () -> item
  std::vector<Oid> items;
  std::vector<Oid> suppliers;
};

/// Creates the paper's inventory schema — stored functions quantity,
/// max_stock, min_stock, consume_freq, supplies, delivery_time; the derived
/// threshold view; and the condition function
///
///   cnd_monitor_items(I) <- quantity(I,Q) AND threshold(I,T) AND Q < T
///   threshold(I,T) <- consume_freq(I,C) AND supplies(S,I) AND
///                     delivery_time(I,S,D) AND G = C*D AND
///                     min_stock(I,M) AND T = G+M
///
/// and populates `config.num_items` items, each with its own supplier.
Result<InventorySchema> BuildInventory(Engine& engine,
                                       const InventoryConfig& config);

/// A ready-to-measure monitoring setup: engine + inventory + an activated
/// monitor_items rule whose action only counts firings.
struct MonitorSetup {
  std::unique_ptr<Engine> engine;
  InventorySchema schema;
  /// Total rule firings (instances ordered) so far.
  size_t fired = 0;
};

/// Builds an inventory of `num_items` items and activates a counting
/// monitor_items rule under the given monitoring mode and semantics.
/// `propagate_deletions = false` gives the paper's insertions-only network
/// of fig. 2 (five positive partial differentials).
Result<std::unique_ptr<MonitorSetup>> SetupMonitorItems(
    size_t num_items, rules::MonitorMode mode,
    rules::Semantics semantics = rules::Semantics::kNervous,
    bool propagate_deletions = false);

/// A fleet of independently-defined monitor rules over one shared
/// inventory: rule k watches its own condition relation
/// cnd_monitor_items_<k> (same body as cnd_monitor_items). Every condition
/// is a distinct root node of the propagation network at the same level,
/// which gives level-synchronous parallel propagation `num_rules`-wide
/// waves to spread across workers — the single-rule setup has at most one
/// derived node per level, which always evaluates on the calling thread.
struct FleetSetup {
  std::unique_ptr<Engine> engine;
  InventorySchema schema;
  std::vector<RelationId> conditions;
  /// Total rule firings (across all rules in the fleet) so far.
  size_t fired = 0;
};

/// Builds an inventory of `num_items` items and activates `num_rules`
/// counting monitor rules, each on its own copy of the condition.
Result<std::unique_ptr<FleetSetup>> SetupMonitorFleet(
    size_t num_items, size_t num_rules, rules::MonitorMode mode);

/// `set fn(object) = value` convenience for single-argument integer stored
/// functions.
Status SetFn(Engine& engine, RelationId fn, Oid object, int64_t value);

/// Current value of a single-argument integer stored function (NotFound if
/// unset).
Result<int64_t> GetFn(const Engine& engine, RelationId fn, Oid object);

}  // namespace deltamon::workload

#endif  // DELTAMON_BENCH_UTIL_INVENTORY_H_
