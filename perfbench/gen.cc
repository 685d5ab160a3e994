#include "gen.h"

#include <algorithm>
#include <cmath>
#include <unordered_set>

namespace perfbench {

namespace {

/// Stream indexes, so every generator of a run draws from its own sequence.
constexpr uint64_t kItemStreams = uint64_t{1} << 40;
constexpr uint64_t kOltpStreams = 1000;
constexpr uint64_t kWriterStream = 2000;
constexpr uint64_t kReaderStreams = 3000;
constexpr uint64_t kBulkStream = 4000;

std::string SetStmt(const char* fn, int64_t key, int64_t value) {
  return std::string("set ") + fn + "(" + std::to_string(key) +
         ") = " + std::to_string(value) + ";";
}

/// A value above every threshold that differs from `current`.
int64_t AboveValue(Rng& rng, int64_t current) {
  int64_t v = rng.Range(kAboveLo, kAboveHi);
  if (v == current) v = v + 1 < kAboveHi ? v + 1 : kAboveLo;
  return v;
}

}  // namespace

uint64_t Rng::Next() {
  uint64_t z = (state_ += 0x9E3779B97F4A7C15ull);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

double Rng::Exponential(double mean) {
  // 53 random bits, shifted off zero so the logarithm stays finite.
  const double u = (static_cast<double>(Next() >> 11) + 0.5) / 9007199254740992.0;
  return -mean * std::log(u);
}

uint64_t StreamSeed(uint64_t seed, uint64_t index) {
  Rng rng(seed ^ (index * 0xD1B54A32D192ED03ull));
  rng.Next();
  return rng.Next();
}

ItemParams InitialParams(uint64_t seed, int64_t key) {
  Rng rng(StreamSeed(seed, kItemStreams + static_cast<uint64_t>(key)));
  ItemParams p;
  p.consume_freq = rng.Range(kFreqLo, kFreqHi);
  p.delivery_time = rng.Range(1, 5);
  p.min_stock = rng.Range(50, 151);
  p.quantity = rng.Range(kAboveLo, kAboveHi);
  return p;
}

OltpStream::OltpStream(const StoreSpec& spec, uint64_t seed, int conn,
                       int num_conns)
    : spec_(spec),
      seed_(seed),
      conn_(conn),
      num_conns_(num_conns),
      num_own_((spec.num_keys - spec.num_hot - conn + num_conns - 1) /
               num_conns),
      rng_(StreamSeed(seed, kOltpStreams + static_cast<uint64_t>(conn))) {}

OltpTxn OltpStream::Next() {
  OltpTxn t;
  if (rng_.Chance(1, 20)) {
    t.hot = true;
    t.key = static_cast<int64_t>(rng_.Below(static_cast<uint64_t>(spec_.num_hot)));
    t.value = kHotBase + static_cast<int64_t>(hot_seq_++) * num_conns_ + conn_;
    const std::string k = std::to_string(t.key);
    t.requests = {"begin; select quantity(" + k + ");",
                  SetStmt("quantity", t.key, t.value) + " commit;"};
    return t;
  }
  t.key = spec_.num_hot +
          static_cast<int64_t>(rng_.Below(static_cast<uint64_t>(num_own_))) *
              num_conns_ +
          conn_;
  const ItemParams initial = InitialParams(seed_, t.key);
  auto it = current_.find(t.key);
  const int64_t current = it == current_.end() ? initial.quantity : it->second;
  if (rng_.Chance(1, 10)) {
    // The store never holds a value below the threshold between commits
    // (the rule restocks within the same wave), so any such value differs.
    t.below = true;
    t.value = rng_.Range(0, initial.threshold());
    current_[t.key] = kMaxStock;
  } else {
    t.value = AboveValue(rng_, current);
    current_[t.key] = t.value;
  }
  t.requests = {SetStmt("quantity", t.key, t.value) + " commit;"};
  return t;
}

WriterStream::WriterStream(const StoreSpec& spec, uint64_t seed,
                           size_t keys_per_txn)
    : spec_(spec),
      seed_(seed),
      keys_per_txn_(keys_per_txn),
      rng_(StreamSeed(seed, kWriterStream)) {}

WriterTxn WriterStream::Next() {
  WriterTxn t;
  std::unordered_set<int64_t> chosen;
  while (t.keys.size() < keys_per_txn_) {
    const int64_t key =
        static_cast<int64_t>(rng_.Below(static_cast<uint64_t>(spec_.num_keys)));
    if (!chosen.insert(key).second) continue;
    const ItemParams initial = InitialParams(seed_, key);
    auto [it, fresh] = current_.try_emplace(
        key, KeyState{initial.quantity, initial.consume_freq});
    KeyState& state = it->second;
    // A different consume_freq, uniform over the others.
    int64_t freq = rng_.Range(kFreqLo, kFreqHi - 1);
    if (freq >= state.consume_freq) ++freq;
    const int64_t threshold = freq * initial.delivery_time + initial.min_stock;
    int64_t quantity = 0;
    if (rng_.Chance(1, 10)) {
      quantity = rng_.Range(0, threshold);
      ++t.below;
      state.quantity = kMaxStock;
    } else {
      quantity = AboveValue(rng_, state.quantity);
      state.quantity = quantity;
    }
    state.consume_freq = freq;
    t.keys.push_back(key);
    t.quantity.push_back(quantity);
    t.consume_freq.push_back(freq);
    t.request += SetStmt("quantity", key, quantity) + " " +
                 SetStmt("consume_freq", key, freq) + " ";
  }
  t.request += "commit;";
  t.think_us = rng_.Exponential(kWriterThinkUs);
  return t;
}

ReaderStream::ReaderStream(const StoreSpec& spec, uint64_t seed, int reader)
    : spec_(spec),
      rng_(StreamSeed(seed, kReaderStreams + static_cast<uint64_t>(reader))) {}

ReadRequest ReaderStream::Next() {
  ReadRequest r;
  r.point = ++count_ % 8 != 0;
  if (r.point) {
    r.key = static_cast<int64_t>(rng_.Below(static_cast<uint64_t>(spec_.num_keys)));
    r.request = "select quantity(" + std::to_string(r.key) + ");";
  } else {
    r.bucket = static_cast<int64_t>(
        rng_.Below(static_cast<uint64_t>(spec_.num_keys / spec_.bucket_size)));
    r.request = "select i for each integer i where bucket(i) = " +
                std::to_string(r.bucket) +
                " and quantity(i) < threshold(i);";
  }
  r.think_us = rng_.Exponential(kReaderThinkUs);
  return r;
}

std::string BulkRound::Describe() const {
  std::string out = "round " + std::to_string(round) + ": quantity " +
                    std::to_string(quantity_above) + "/" +
                    std::to_string(quantity_below) + " delivery_time " +
                    std::to_string(delivery_time) + " consume_freq " +
                    std::to_string(consume_freq) + " newly " +
                    std::to_string(newly_crossing) + " crossing";
  for (size_t i : crossing) out += " " + std::to_string(i);
  out += " probes";
  for (size_t i : probes) out += " " + std::to_string(i);
  return out + "\n";
}

BulkStream::BulkStream(const BulkSpec& spec, uint64_t seed)
    : spec_(spec), rng_(StreamSeed(seed, kBulkStream)) {}

BulkRound BulkStream::Next() {
  BulkRound r;
  r.round = round_++;
  // Parity starts opposite BuildInventory's initial delivery_time 2 and
  // consume_freq 20, so round 0 changes them too.
  const int64_t odd = (r.round + 1) % 2;
  r.quantity_above = kBulkAbove + r.round % 2;
  r.quantity_below = kBulkBelow + r.round % 2;
  r.delivery_time = 2 + odd;
  r.consume_freq = 20 + odd;
  std::unordered_set<size_t> chosen;
  while (r.crossing.size() < spec_.crossing) {
    const size_t i = static_cast<size_t>(rng_.Below(spec_.items));
    if (chosen.insert(i).second) r.crossing.push_back(i);
  }
  std::sort(r.crossing.begin(), r.crossing.end());
  for (size_t i : r.crossing) {
    if (!std::binary_search(previous_.begin(), previous_.end(), i)) {
      ++r.newly_crossing;
    }
  }
  previous_ = r.crossing;
  r.probes = r.crossing;
  while (r.probes.size() < std::min(spec_.probes, spec_.items)) {
    const size_t i = static_cast<size_t>(rng_.Below(spec_.items));
    if (chosen.insert(i).second) r.probes.push_back(i);
  }
  std::sort(r.probes.begin(), r.probes.end());
  return r;
}

int64_t BulkRound::QuantityOf(size_t i) const {
  return std::binary_search(crossing.begin(), crossing.end(), i)
             ? quantity_below
             : quantity_above;
}

}  // namespace perfbench
