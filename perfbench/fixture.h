#ifndef PERFBENCH_FIXTURE_H_
#define PERFBENCH_FIXTURE_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "amosql/session.h"
#include "gen.h"
#include "net/client.h"
#include "net/server.h"
#include "rules/engine.h"

namespace perfbench {

using deltamon::Engine;
using deltamon::RelationId;
using deltamon::Result;
using deltamon::Status;

/// The integer-keyed inventory behind the network workloads, built the way
/// an application would: schema and rule through a local AMOSQL session,
/// bulk load through the embedded Database API.
///
///   threshold(i) = consume_freq(i) * delivery_time(i) + min_stock(i)
///   rule monitor_items: when quantity(i) < threshold(i)
///                       do restock(i, max_stock(i))
///
/// `restock` is a procedure the benchmark registers (the paper's foreign
/// function): it counts the firing and writes quantity(i) = max_stock(i),
/// so every firing causes a second rule round.
class Store {
 public:
  static Result<std::unique_ptr<Store>> Build(const StoreSpec& spec,
                                              uint64_t seed);
  Store(const Store&) = delete;
  Store& operator=(const Store&) = delete;

  Engine& engine() { return engine_; }
  uint64_t firings() const { return firings_.load(std::memory_order_relaxed); }
  RelationId quantity() const { return quantity_; }
  RelationId consume_freq() const { return consume_freq_; }

  /// Sorted contents of every stored function, one line per tuple.
  std::vector<std::string> Dump() const;

  /// While on, each restock call's duration is kept (traced runs).
  void TimeActions(bool on) { time_actions_.store(on); }
  std::vector<double> TakeActionMicros();

 private:
  Store() : session_(engine_) {}

  Engine engine_;
  deltamon::amosql::Session session_;
  RelationId quantity_ = deltamon::kInvalidRelationId;
  RelationId consume_freq_ = deltamon::kInvalidRelationId;
  std::vector<std::pair<std::string, RelationId>> stored_;
  std::atomic<uint64_t> firings_{0};
  std::atomic<bool> time_actions_{false};
  std::mutex action_mu_;
  std::vector<double> action_us_;
};

/// First difference between two dumps, or nullopt when identical.
std::optional<std::string> CompareDumps(const std::vector<std::string>& got,
                                        const std::vector<std::string>& want);

/// A loopback server over a Store plus the benchmark's client connections.
/// Members are destroyed clients-first, so the server stops before the
/// store it serves.
struct NetFixture {
  std::unique_ptr<Store> store;
  std::unique_ptr<deltamon::net::Server> server;
  std::vector<deltamon::net::Client> clients;
};

Result<std::unique_ptr<NetFixture>> StartNet(const StoreSpec& spec,
                                             uint64_t seed, size_t connections,
                                             size_t workers);

/// Opens `n` connections; `trace_info` asks the server to end every reply
/// with the request's trace id.
Result<std::vector<deltamon::net::Client>> Connect(uint16_t port, size_t n,
                                                   bool trace_info);

/// --- Serial replay checks ------------------------------------------------

/// One acknowledged oltp_net transaction (OltpTxn without its text).
struct OltpCommit {
  int64_t key = 0;
  int64_t value = 0;
  /// Hot transactions: the quantity their read saw (the predecessor value).
  int64_t read_value = 0;
  bool hot = false;
  bool below = false;
};

/// Replays every connection's acknowledged history serially through a
/// fresh Store — own keys in each connection's order, each hot key in the
/// order its reads prove — and compares sorted base relations and the
/// firing count with the served store and with the generator's
/// prediction. Returns the mismatches (empty when correct).
std::vector<std::string> CheckOltp(const StoreSpec& spec, uint64_t seed,
                                   const std::vector<std::vector<OltpCommit>>& log,
                                   Store& served);

/// Replays the writer's acknowledged transactions in order; also checks
/// that every point read returned a value the key held at some commit and
/// that no condition read saw a below-threshold item (the rule restocks
/// within the same wave, so committed state never satisfies it).
struct PointRead {
  int64_t key = 0;
  int64_t value = 0;
};
std::vector<std::string> CheckReadWriteMix(
    const StoreSpec& spec, uint64_t seed, const std::vector<WriterTxn>& log,
    const std::vector<PointRead>& point_reads, uint64_t condition_rows,
    Store& served);

/// Parses a one-column integer row "(123)".
std::optional<int64_t> ParseIntRow(const std::string& row);

}  // namespace perfbench

#endif  // PERFBENCH_FIXTURE_H_
