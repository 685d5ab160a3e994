#ifndef PERFBENCH_REPORT_H_
#define PERFBENCH_REPORT_H_

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "stats.h"

namespace perfbench {

/// One measured quantity. An absent value (nullopt) means the source does
/// not exist in this build or workload — never that it measured 0.
struct Metric {
  std::string name;
  std::string unit;
  std::optional<double> value;
  /// Human-readable base: sample count, numerator and denominator.
  std::string detail;
};

struct MetricSpec {
  const char* name;
  const char* unit;
};

/// The metrics of the result line: end-to-end ones for untraced runs,
/// per-layer ones for traced runs, in output order. The p99 latencies,
/// abort_ratio and error_ratio are printed in the table only (see
/// README.md for why they are not gated).
extern const std::vector<MetricSpec> kEndToEndMetrics;
extern const std::vector<MetricSpec> kPerLayerMetrics;

class Report {
 public:
  void Set(const std::string& name, const std::string& unit,
           std::optional<double> value, std::string detail = "");
  /// A ratio metric; its detail names the numerator and denominator.
  void SetRatio(const std::string& name, const std::string& unit,
                const Ratio& ratio);
  /// p99 of `us` (microseconds); the detail states the sample count, how
  /// many lie beyond p99 and, below 10, the highest supported percentile.
  void SetP99(const std::string& name, const std::vector<double>& us,
              const std::string& detail_prefix = "");

  const Metric* Find(const std::string& name) const;
  const std::vector<Metric>& metrics() const { return metrics_; }

 private:
  std::vector<Metric> metrics_;
};

/// Shortest decimal that reads back as `v`; "null" when not finite.
std::string FormatNumber(double v);

/// The last line of every run: {"correct", "attempted", "failed",
/// "metrics": {name: {"value", "unit"}}} over `specs`, in order. Metrics
/// the report lacks are printed with a null value.
std::string ResultLine(const Report& report,
                       const std::vector<MetricSpec>& specs, bool correct,
                       uint64_t attempted, uint64_t failed);

/// Aligned "name value unit  detail" lines for every metric in the report.
std::string FormatTable(const Report& report);

}  // namespace perfbench

#endif  // PERFBENCH_REPORT_H_
