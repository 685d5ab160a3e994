#ifndef PERFBENCH_GEN_H_
#define PERFBENCH_GEN_H_

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

/// Input generators. Every stream is a pure function of (seed, stream
/// index): the same seed yields byte-identical statements, whatever the
/// timing of the run that consumes them. Each generator also tracks the
/// value its own writes leave in the store, so every write it emits
/// changes the stored value (a write of the current value would be a no-op
/// overlay that never reaches the commit queue).

namespace perfbench {

/// splitmix64: small, seedable, and identical on every platform.
class Rng {
 public:
  explicit Rng(uint64_t seed) : state_(seed) {}
  uint64_t Next();
  /// Uniform in [0, n); n > 0.
  uint64_t Below(uint64_t n) { return Next() % n; }
  /// Uniform in [lo, hi).
  int64_t Range(int64_t lo, int64_t hi) {
    return lo + static_cast<int64_t>(Below(static_cast<uint64_t>(hi - lo)));
  }
  /// True with probability num/den.
  bool Chance(uint64_t num, uint64_t den) { return Below(den) < num; }
  /// Exponentially distributed with the given mean.
  double Exponential(double mean);

 private:
  uint64_t state_;
};

/// Seed of stream `index` of a run seeded with `seed`.
uint64_t StreamSeed(uint64_t seed, uint64_t index);

/// The rule's restock target. No generator ever writes it, so a restocked
/// item's next write always changes the value.
inline constexpr int64_t kMaxStock = 1'000'000'000;
/// Values that stay above every threshold are drawn from [kAboveLo, kAboveHi).
inline constexpr int64_t kAboveLo = 1'000;
inline constexpr int64_t kAboveHi = 100'000'000;
/// Hot-key writes are kHotBase + a per-run unique sequence number.
inline constexpr int64_t kHotBase = 100'000'000;

/// The integer-keyed inventory behind oltp_net and read_write_mix.
struct StoreSpec {
  int64_t num_keys = 100'000;
  /// Keys [0, num_hot) are shared by every oltp_net connection.
  int64_t num_hot = 4;
  /// bucket(k) = k / bucket_size: the key ranges readers scan.
  int64_t bucket_size = 1'000;
};

/// The paper's inventory parameters for one item:
///   threshold = consume_freq * delivery_time + min_stock.
struct ItemParams {
  int64_t consume_freq = 0;
  int64_t delivery_time = 0;
  int64_t min_stock = 0;
  int64_t quantity = 0;
  int64_t threshold() const {
    return consume_freq * delivery_time + min_stock;
  }
};

/// Initial state of key `key`; quantity starts above the threshold.
ItemParams InitialParams(uint64_t seed, int64_t key);

/// consume_freq is drawn from [kFreqLo, kFreqHi).
inline constexpr int64_t kFreqLo = 10;
inline constexpr int64_t kFreqHi = 31;

/// --- oltp_net --------------------------------------------------------------

/// One oltp_net transaction, as the AMOSQL requests a client sends.
struct OltpTxn {
  bool hot = false;
  int64_t key = 0;
  int64_t value = 0;
  /// The write drops below the threshold, so the monitor rule fires once
  /// and restocks the item.
  bool below = false;
  /// Own key: {"set quantity(k) = v; commit;"}. Hot key: a read that pins
  /// the snapshot, then the write: {"begin; select quantity(k);",
  /// "set quantity(k) = v; commit;"}. The read makes the commit order of
  /// each hot key observable (every hot value is unique, so each committed
  /// hot write names its predecessor) and widens the conflict window so
  /// validation aborts occur at a steady rate.
  std::vector<std::string> requests;
};

/// The transaction stream of oltp_net connection `conn` of `num_conns`:
/// 1 in 20 transactions writes a hot key, the rest write keys only this
/// connection owns; 1 in 10 own-key writes drops below the threshold.
class OltpStream {
 public:
  OltpStream(const StoreSpec& spec, uint64_t seed, int conn, int num_conns);
  OltpTxn Next();

 private:
  StoreSpec spec_;
  uint64_t seed_;
  int conn_;
  int num_conns_;
  int64_t num_own_;
  Rng rng_;
  uint64_t hot_seq_ = 0;
  /// Stored quantity after this stream's last write, per touched key.
  std::unordered_map<int64_t, int64_t> current_;
};

/// --- read_write_mix --------------------------------------------------------

/// One writer transaction: quantity and consume_freq of `keys`.
struct WriterTxn {
  std::vector<int64_t> keys;
  std::vector<int64_t> quantity;
  std::vector<int64_t> consume_freq;
  /// Writes that drop below the (new) threshold; each fires the rule once.
  size_t below = 0;
  std::string request;
  /// Pause after the commit before the next transaction.
  double think_us = 0;
};

class WriterStream {
 public:
  WriterStream(const StoreSpec& spec, uint64_t seed, size_t keys_per_txn);
  WriterTxn Next();

 private:
  struct KeyState {
    int64_t quantity = 0;
    int64_t consume_freq = 0;
  };
  StoreSpec spec_;
  uint64_t seed_;
  size_t keys_per_txn_;
  Rng rng_;
  std::unordered_map<int64_t, KeyState> current_;
};

/// One reader request: a point read or the rule condition over a bucket.
struct ReadRequest {
  bool point = true;
  int64_t key = 0;     ///< point reads
  int64_t bucket = 0;  ///< condition reads
  std::string request;
  /// Pause after the reply before the next request.
  double think_us = 0;
};

/// Mean pauses of the read_write_mix clients. Exponential pauses keep the
/// readers out of lock step (a wave releases all blocked readers at once),
/// and leave the writer reader-free moments to take the exclusive gate.
inline constexpr double kWriterThinkUs = 6'000;
inline constexpr double kReaderThinkUs = 1'000;

/// Seven point reads `select quantity(k);`, then the rule condition as an
/// ad-hoc select over one bucket of keys, and again. Point reads are the
/// large majority so the read median sits inside one population (a 1:1 mix
/// puts it on the boundary between two, where it jumps from run to run).
class ReaderStream {
 public:
  ReaderStream(const StoreSpec& spec, uint64_t seed, int reader);
  ReadRequest Next();

 private:
  StoreSpec spec_;
  Rng rng_;
  uint64_t count_ = 0;
};

/// --- bulk_wave ---------------------------------------------------------------

struct BulkSpec {
  size_t items = 250;
  size_t rules = 8;
  /// Items that drop below the threshold in each round.
  size_t crossing = 5;
  /// Items read back after each commit (the crossing ones among them).
  size_t probes = 64;
};

/// Quantity written to items that stay above / drop below the threshold.
/// Thresholds stay within [140, 163] (BuildInventory's min_stock 100 with
/// consume_freq 20..21 and delivery_time 2..3).
inline constexpr int64_t kBulkAbove = 900;
inline constexpr int64_t kBulkBelow = 10;

/// One fig. 7 commit: quantity, delivery_time and consume_freq of every
/// item. Values alternate between rounds, so every write is a change.
struct BulkRound {
  int64_t round = 0;
  /// Sorted indexes of the items written below the threshold.
  std::vector<size_t> crossing;
  int64_t quantity_above = 0;
  int64_t quantity_below = 0;
  int64_t delivery_time = 0;
  int64_t consume_freq = 0;
  /// Items whose condition turns false -> true this round (crossing now,
  /// not in the previous round): each of the `rules` rules fires for each.
  size_t newly_crossing = 0;
  /// Sorted indexes of the items read back after the commit.
  std::vector<size_t> probes;

  /// The quantity this round writes to item `i`.
  int64_t QuantityOf(size_t i) const;
  /// Canonical text of the round, for determinism checks.
  std::string Describe() const;
};

class BulkStream {
 public:
  BulkStream(const BulkSpec& spec, uint64_t seed);
  BulkRound Next();

 private:
  BulkSpec spec_;
  Rng rng_;
  int64_t round_ = 0;
  std::vector<size_t> previous_;
};

}  // namespace perfbench

#endif  // PERFBENCH_GEN_H_
