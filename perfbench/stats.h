#ifndef PERFBENCH_STATS_H_
#define PERFBENCH_STATS_H_

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

namespace perfbench {

/// A tail percentile is only reported when at least this many samples lie
/// beyond it; p99 therefore needs >= 1000 samples.
inline constexpr size_t kMinTailSamples = 10;

/// Nearest-rank percentile of an ascending vector: the smallest sample with
/// at least p% of the samples at or below it. Empty input gives 0.
inline double PercentileOfSorted(const std::vector<double>& sorted, double p) {
  if (sorted.empty()) return 0;
  const double rank = std::ceil(p / 100.0 * static_cast<double>(sorted.size()));
  size_t index = rank < 1 ? 0 : static_cast<size_t>(rank) - 1;
  return sorted[std::min(index, sorted.size() - 1)];
}

/// Samples strictly beyond the nearest-rank percentile p of n samples.
inline size_t SamplesBeyond(size_t n, double p) {
  if (n == 0) return 0;
  const double rank = std::ceil(p / 100.0 * static_cast<double>(n));
  return n - std::min(n, static_cast<size_t>(std::max(rank, 1.0)));
}

/// Median, p99, and the highest of the standard percentiles that still has
/// kMinTailSamples beyond it, over one set of latency samples.
struct LatencySummary {
  size_t samples = 0;
  double p50 = 0;
  double p99 = 0;
  bool p99_supported = false;
  double tail_percentile = 0;  ///< 0 when even the median is unsupported
  double tail = 0;
};

inline LatencySummary Summarize(std::vector<double> values) {
  LatencySummary s;
  s.samples = values.size();
  std::sort(values.begin(), values.end());
  s.p50 = PercentileOfSorted(values, 50);
  s.p99 = PercentileOfSorted(values, 99);
  s.p99_supported = SamplesBeyond(values.size(), 99) >= kMinTailSamples;
  for (double p : {99.99, 99.9, 99.0, 95.0, 90.0, 50.0}) {
    if (SamplesBeyond(values.size(), p) >= kMinTailSamples) {
      s.tail_percentile = p;
      s.tail = PercentileOfSorted(values, p);
      break;
    }
  }
  return s;
}

/// A ratio that always travels with its base: the numerator and
/// denominator it was computed from, and what each counts.
struct Ratio {
  double num = 0;
  double den = 0;
  std::string num_label;
  std::string den_label;

  /// Absent when the denominator is 0.
  std::optional<double> value() const {
    if (den == 0) return std::nullopt;
    return num / den;
  }
};

}  // namespace perfbench

#endif  // PERFBENCH_STATS_H_
