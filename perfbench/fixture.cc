#include "fixture.h"

#include <chrono>
#include <unordered_map>
#include <unordered_set>
#include <utility>

namespace perfbench {

using deltamon::Database;
using deltamon::Tuple;
using deltamon::Value;

namespace {

constexpr const char* kSchema = R"(
  create function quantity(integer) -> integer;
  create function max_stock(integer) -> integer;
  create function min_stock(integer) -> integer;
  create function consume_freq(integer) -> integer;
  create function delivery_time(integer) -> integer;
  create function bucket(integer) -> integer;
  create function threshold(integer i) -> integer as
    select consume_freq(i) * delivery_time(i) + min_stock(i);
  create rule monitor_items() as
    when for each integer i where quantity(i) < threshold(i)
    do restock(i, max_stock(i));
)";

constexpr const char* kStoredFunctions[] = {
    "quantity",      "max_stock", "min_stock", "consume_freq",
    "delivery_time", "bucket"};

Status SetInt(Database& db, RelationId rel, int64_t key, int64_t value) {
  return db.Set(rel, Tuple{Value(key)}, Tuple{Value(value)});
}

}  // namespace

Result<std::unique_ptr<Store>> Store::Build(const StoreSpec& spec,
                                            uint64_t seed) {
  std::unique_ptr<Store> s(new Store());
  Store* raw = s.get();
  s->session_.RegisterProcedure(
      "restock", [raw](Database& db, const std::vector<Value>& args) {
        const bool timed = raw->time_actions_.load(std::memory_order_relaxed);
        const auto start = std::chrono::steady_clock::now();
        raw->firings_.fetch_add(1, std::memory_order_relaxed);
        Status st = db.Set(raw->quantity_, Tuple{args[0]}, Tuple{args[1]});
        if (timed) {
          const std::chrono::duration<double, std::micro> us =
              std::chrono::steady_clock::now() - start;
          std::lock_guard<std::mutex> lock(raw->action_mu_);
          raw->action_us_.push_back(us.count());
        }
        return st;
      });
  DELTAMON_RETURN_IF_ERROR(s->session_.Execute(kSchema).status());
  deltamon::Catalog& catalog = s->engine_.db.catalog();
  for (const char* name : kStoredFunctions) {
    DELTAMON_ASSIGN_OR_RETURN(RelationId rel, catalog.FindRelation(name));
    s->stored_.emplace_back(name, rel);
  }
  s->quantity_ = s->stored_[0].second;
  s->consume_freq_ = s->stored_[3].second;
  Database& db = s->engine_.db;
  for (int64_t k = 0; k < spec.num_keys; ++k) {
    const ItemParams p = InitialParams(seed, k);
    const int64_t values[] = {p.quantity,      kMaxStock,
                              p.min_stock,     p.consume_freq,
                              p.delivery_time, k / spec.bucket_size};
    for (size_t f = 0; f < s->stored_.size(); ++f) {
      DELTAMON_RETURN_IF_ERROR(SetInt(db, s->stored_[f].second, k, values[f]));
    }
  }
  DELTAMON_RETURN_IF_ERROR(db.Commit());
  DELTAMON_RETURN_IF_ERROR(
      s->session_.Execute("activate monitor_items();").status());
  return s;
}

std::vector<std::string> Store::Dump() const {
  std::vector<std::string> out;
  for (const auto& [name, rel] : stored_) {
    const deltamon::BaseRelation* base =
        engine_.db.catalog().GetBaseRelation(rel);
    for (const Tuple& t : deltamon::SortedTuples(base->rows())) {
      out.push_back(name + t.ToString());
    }
  }
  return out;
}

std::vector<double> Store::TakeActionMicros() {
  std::lock_guard<std::mutex> lock(action_mu_);
  return std::exchange(action_us_, {});
}

std::optional<std::string> CompareDumps(const std::vector<std::string>& got,
                                        const std::vector<std::string>& want) {
  const size_t n = std::min(got.size(), want.size());
  for (size_t i = 0; i < n; ++i) {
    if (got[i] != want[i]) {
      return "state differs at row " + std::to_string(i) + ": served " +
             got[i] + ", replay " + want[i];
    }
  }
  if (got.size() != want.size()) {
    return "state has " + std::to_string(got.size()) + " rows, replay " +
           std::to_string(want.size());
  }
  return std::nullopt;
}

Result<std::vector<deltamon::net::Client>> Connect(uint16_t port, size_t n,
                                                   bool trace_info) {
  std::vector<deltamon::net::Client> clients;
  for (size_t i = 0; i < n; ++i) {
    DELTAMON_ASSIGN_OR_RETURN(
        deltamon::net::Client c,
        deltamon::net::Client::Connect("127.0.0.1", port,
                                       deltamon::net::kDefaultMaxFrameSize,
                                       trace_info));
    clients.push_back(std::move(c));
  }
  return clients;
}

Result<std::unique_ptr<NetFixture>> StartNet(const StoreSpec& spec,
                                             uint64_t seed, size_t connections,
                                             size_t workers) {
  auto f = std::make_unique<NetFixture>();
  DELTAMON_ASSIGN_OR_RETURN(f->store, Store::Build(spec, seed));
  deltamon::net::ServerOptions options;
  options.port = 0;
  options.num_workers = workers;
  f->server = std::make_unique<deltamon::net::Server>(f->store->engine(),
                                                      options);
  DELTAMON_RETURN_IF_ERROR(f->server->Start());
  DELTAMON_ASSIGN_OR_RETURN(f->clients,
                            Connect(f->server->port(), connections, false));
  return f;
}

std::optional<int64_t> ParseIntRow(const std::string& row) {
  if (row.size() < 3 || row.front() != '(' || row.back() != ')') {
    return std::nullopt;
  }
  try {
    size_t used = 0;
    const std::string body = row.substr(1, row.size() - 2);
    const int64_t v = std::stoll(body, &used);
    if (used != body.size()) return std::nullopt;
    return v;
  } catch (const std::exception&) {
    return std::nullopt;
  }
}

namespace {

/// Compares the served store with the replay and both firing counts with
/// the generator's prediction.
void CompareOutcome(Store& served, Store& replay, uint64_t predicted,
                    std::vector<std::string>* errors) {
  if (auto diff = CompareDumps(served.Dump(), replay.Dump())) {
    errors->push_back(*diff);
  }
  if (served.firings() != replay.firings() || served.firings() != predicted) {
    errors->push_back("rule firings: served " +
                      std::to_string(served.firings()) + ", replay " +
                      std::to_string(replay.firings()) + ", predicted " +
                      std::to_string(predicted));
  }
}

void Note(const Status& s, std::vector<std::string>* errors) {
  if (!s.ok()) errors->push_back("replay: " + s.ToString());
}

}  // namespace

std::vector<std::string> CheckOltp(
    const StoreSpec& spec, uint64_t seed,
    const std::vector<std::vector<OltpCommit>>& log, Store& served) {
  std::vector<std::string> errors;
  Result<std::unique_ptr<Store>> built = Store::Build(spec, seed);
  if (!built.ok()) return {"replay store: " + built.status().ToString()};
  Store& replay = **built;
  Database& db = replay.engine().db;
  uint64_t predicted = 0;
  // Own keys are written only by their connection, and the rule touches
  // only the item it fires for, so per-key order is the whole story.
  std::unordered_map<int64_t, std::unordered_map<int64_t, const OltpCommit*>>
      hot_by_predecessor;
  size_t hot_commits = 0;
  for (const std::vector<OltpCommit>& conn : log) {
    for (const OltpCommit& c : conn) {
      if (c.hot) {
        ++hot_commits;
        if (!hot_by_predecessor[c.key].emplace(c.read_value, &c).second) {
          errors.push_back("hot key " + std::to_string(c.key) +
                           ": two commits read value " +
                           std::to_string(c.read_value));
        }
        continue;
      }
      if (c.below) ++predicted;
      Note(SetInt(db, replay.quantity(), c.key, c.value), &errors);
      Note(db.Commit(), &errors);
    }
  }
  // Each committed hot write read its predecessor's unique value, so the
  // commits of one key form a single chain from the initial value.
  size_t chained = 0;
  for (int64_t key = 0; key < spec.num_hot; ++key) {
    auto& next = hot_by_predecessor[key];
    int64_t value = InitialParams(seed, key).quantity;
    for (auto it = next.find(value); it != next.end(); it = next.find(value)) {
      value = it->second->value;
      next.erase(it);
      ++chained;
      Note(SetInt(db, replay.quantity(), key, value), &errors);
      Note(db.Commit(), &errors);
    }
  }
  if (chained != hot_commits) {
    errors.push_back(std::to_string(hot_commits - chained) +
                     " hot-key commits do not chain from the initial values "
                     "(history not serializable)");
  }
  CompareOutcome(served, replay, predicted, &errors);
  return errors;
}

std::vector<std::string> CheckReadWriteMix(
    const StoreSpec& spec, uint64_t seed, const std::vector<WriterTxn>& log,
    const std::vector<PointRead>& point_reads, uint64_t condition_rows,
    Store& served) {
  std::vector<std::string> errors;
  Result<std::unique_ptr<Store>> built = Store::Build(spec, seed);
  if (!built.ok()) return {"replay store: " + built.status().ToString()};
  Store& replay = **built;
  Database& db = replay.engine().db;
  uint64_t predicted = 0;
  std::unordered_map<int64_t, std::unordered_set<int64_t>> held;
  for (const WriterTxn& t : log) {
    predicted += t.below;
    for (size_t i = 0; i < t.keys.size(); ++i) {
      Note(SetInt(db, replay.quantity(), t.keys[i], t.quantity[i]), &errors);
      Note(SetInt(db, replay.consume_freq(), t.keys[i], t.consume_freq[i]),
           &errors);
      held[t.keys[i]].insert(t.quantity[i]);
    }
    Note(db.Commit(), &errors);
  }
  CompareOutcome(served, replay, predicted, &errors);
  size_t bad_reads = 0;
  for (const PointRead& r : point_reads) {
    if (r.value == kMaxStock || r.value == InitialParams(seed, r.key).quantity) {
      continue;
    }
    auto it = held.find(r.key);
    if (it == held.end() || !it->second.contains(r.value)) ++bad_reads;
  }
  if (bad_reads > 0) {
    errors.push_back(std::to_string(bad_reads) +
                     " point reads returned a value the key never held");
  }
  if (condition_rows > 0) {
    errors.push_back(std::to_string(condition_rows) +
                     " condition rows seen: a reader saw uncommitted state");
  }
  return errors;
}

}  // namespace perfbench
