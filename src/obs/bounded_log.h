#ifndef DELTAMON_OBS_BOUNDED_LOG_H_
#define DELTAMON_OBS_BOUNDED_LOG_H_

#include <atomic>
#include <cstdint>
#include <deque>
#include <mutex>
#include <type_traits>
#include <utility>
#include <vector>

#include "obs/metrics.h"  // DELTAMON_OBS_ENABLED

/// --- Bounded in-memory logs -------------------------------------------------
///
/// Every list of records the obs layer keeps in memory — trace rings, the
/// request flight recorder, the slow log, firing provenance and wave
/// capture — is a BoundedLog: the most recent `capacity` entries behind
/// one mutex, plus a tally of entries accepted and of entries displaced by
/// overflow, so a truncated log announces itself. Memory stays bounded
/// whatever the write rate. Writers append once per statement, span,
/// firing or round, far off the per-tuple hot path; readers are the admin
/// thread, the `show`/`dump` statements and tests.
///
/// A cleared log is a fresh recording: its entries and both tallies go to
/// zero, and `seq` restarts at 1. Every read therefore satisfies
/// entries.size() == total - dropped.

namespace deltamon::obs {

/// One locked read of a log: its entries, oldest first, with the flag and
/// tallies that held at the same instant. Documents built from one read
/// never disagree with themselves while writers run.
template <typename Entry>
struct LogRead {
  std::vector<Entry> records;
  bool enabled = false;
  size_t capacity = 0;
  uint64_t total = 0;    ///< entries accepted since construction or Clear
  uint64_t dropped = 0;  ///< of those, displaced by overflow
};

template <typename Entry>
class BoundedLog {
 public:
  explicit BoundedLog(size_t capacity) : capacity_(capacity) {}
  BoundedLog(const BoundedLog&) = delete;
  BoundedLog& operator=(const BoundedLog&) = delete;

  /// Whether on-demand capture into this log is armed (provenance, wave
  /// capture). Capture sites check it before doing any work; logs that
  /// record unconditionally ignore it. One relaxed load.
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }
  void set_enabled(bool on) { enabled_.store(on, std::memory_order_relaxed); }

  /// Appends `entry`, displacing the oldest when full. An entry with a
  /// `seq` member gets its 1-based position in the recording. Returns true
  /// when an entry was dropped (the oldest, or this one at capacity 0).
  bool Record(Entry entry) {
    std::lock_guard<std::mutex> lock(mu_);
    ++total_;
    if constexpr (requires { entry.seq; }) entry.seq = total_;
    if (capacity_ == 0) {
      ++dropped_;
      return true;
    }
    const bool full = records_.size() == capacity_;
    if (full) {
      records_.pop_front();
      ++dropped_;
    }
    records_.push_back(std::move(entry));
    return full;
  }

  LogRead<Entry> Read() const {
    std::lock_guard<std::mutex> lock(mu_);
    return {std::vector<Entry>(records_.begin(), records_.end()), enabled(),
            capacity_, total_, dropped_};
  }
  /// Oldest-to-newest copy of the entries.
  std::vector<Entry> Snapshot() const { return Read().records; }
  uint64_t total_records() const {
    std::lock_guard<std::mutex> lock(mu_);
    return total_;
  }
  uint64_t dropped_records() const {
    std::lock_guard<std::mutex> lock(mu_);
    return dropped_;
  }
  size_t capacity() const { return capacity_; }

  void Clear() {
    std::lock_guard<std::mutex> lock(mu_);
    records_.clear();
    total_ = 0;
    dropped_ = 0;
  }

 private:
  const size_t capacity_;
  std::atomic<bool> enabled_{false};
  mutable std::mutex mu_;
  std::deque<Entry> records_;  // guarded by mu_
  uint64_t total_ = 0;         // guarded by mu_
  uint64_t dropped_ = 0;       // guarded by mu_
};

/// The compiled-out form of a log: no buffer, no lock, never enabled, and
/// every read is empty, so each capture site folds away while the
/// documents built from it stay valid.
template <typename Entry>
struct EmptyLog {
  explicit EmptyLog(size_t /*capacity*/) {}
  static constexpr bool enabled() { return false; }
  void set_enabled(bool) {}
  bool Record(const Entry&) { return false; }
  LogRead<Entry> Read() const { return {}; }
  std::vector<Entry> Snapshot() const { return {}; }
  uint64_t total_records() const { return 0; }
  uint64_t dropped_records() const { return 0; }
  size_t capacity() const { return 0; }
  void Clear() {}
};

/// A process-wide log that -DDELTAMON_OBS=OFF compiles out: the request
/// flight recorder, firing provenance and wave capture. The slow log and
/// trace rings are server plumbing and stay real in every build.
template <typename Entry>
using ProcessLog = std::conditional_t<DELTAMON_OBS_ENABLED != 0,
                                      BoundedLog<Entry>, EmptyLog<Entry>>;

}  // namespace deltamon::obs

#endif  // DELTAMON_OBS_BOUNDED_LOG_H_
