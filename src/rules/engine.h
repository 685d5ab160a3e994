#ifndef DELTAMON_RULES_ENGINE_H_
#define DELTAMON_RULES_ENGINE_H_

#include "objectlog/registry.h"
#include "rules/rule_manager.h"
#include "storage/database.h"
#include "txn/manager.h"

namespace deltamon {

/// Convenience aggregate wiring a database, the derived-relation registry,
/// the rule manager, and the transaction manager together — the full
/// active-DBMS stack. Most programs (and the AMOSQL session) build on this.
///
///   Engine engine;
///   engine.db.catalog().CreateType("item");
///   ... define functions and clauses ...
///   engine.rules.CreateRule(...); engine.rules.Activate(...);
///   ... updates ...
///   engine.db.Commit();   // deferred check phase runs here
///
/// Embedded programs (benches, tests) may drive the database directly,
/// exactly as above, from one thread. Every AMOSQL Session runs through
/// `txn` instead: an optimistic transaction with snapshot reads, buffered
/// writes and group-committed check phases, so sessions on any number of
/// threads — the network server's connections included — share the engine.
struct Engine {
  Engine() : rules(db, registry), txn(db, rules) {}
  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  Database db;
  objectlog::DerivedRegistry registry;
  rules::RuleManager rules;
  txn::TransactionManager txn;
};

}  // namespace deltamon

#endif  // DELTAMON_RULES_ENGINE_H_
