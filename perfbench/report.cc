#include "report.h"

#include <charconv>
#include <cmath>
#include <cstdio>

namespace perfbench {

const std::vector<MetricSpec> kEndToEndMetrics = {
    {"setup_s", "s"},       {"commits_per_s", "1/s"},
    {"commit_p50_us", "us"}, {"reads_per_s", "1/s"},
    {"read_p50_us", "us"},  {"peak_rss_mb", "MiB"},
};

const std::vector<MetricSpec> kPerLayerMetrics = {
    {"net.wire_us", "us"},
    {"net.queue_wait_us", "us"},
    {"net.queue_wait_p99_us", "us"},
    {"net.reply_write_us", "us"},
    {"amosql.exec_us", "us"},
    {"amosql.read_exec_us", "us"},
    {"txn.commit_queue_wait_us", "us"},
    {"txn.commit_queue_wait_p99_us", "us"},
    {"txn.txns_per_wave", "txns/wave"},
    {"txn.aborts_per_commit", "aborts/commit"},
    {"txn.noop_commits", "count"},
    {"rules.check_us", "us"},
    {"rules.check_p99_us", "us"},
    {"rules.action_us", "us"},
    {"rules.rounds_per_check", "rounds/check"},
    {"rules.firings_per_commit", "firings/commit"},
    {"storage.update_us", "us"},
    {"storage.commit_overhead_us", "us"},
    {"storage.events_per_commit", "events/commit"},
    {"delta.tuples_per_round", "tuples/round"},
    {"core.wave_us", "us"},
    {"core.node_eval_us", "us"},
    {"core.differentials_executed_per_wave", "diffs/wave"},
    {"core.differentials_skipped_per_wave", "diffs/wave"},
    {"core.tuples_propagated_per_wave", "tuples/wave"},
    {"core.peak_wavefront_tuples", "tuples"},
    {"objectlog.clause_self_us", "us"},
    {"objectlog.clause_evals_per_commit", "evals/commit"},
    {"objectlog.tuples_examined_per_commit", "tuples/commit"},
    {"objectlog.bindings_per_commit", "bindings/commit"},
    {"obs.trace_overhead_ratio", "ratio"},
};

void Report::Set(const std::string& name, const std::string& unit,
                 std::optional<double> value, std::string detail) {
  for (Metric& m : metrics_) {
    if (m.name == name) {
      m = Metric{name, unit, value, std::move(detail)};
      return;
    }
  }
  metrics_.push_back(Metric{name, unit, value, std::move(detail)});
}

void Report::SetRatio(const std::string& name, const std::string& unit,
                      const Ratio& ratio) {
  Set(name, unit, ratio.value(),
      ratio.num_label + "=" + FormatNumber(ratio.num) + " / " +
          ratio.den_label + "=" + FormatNumber(ratio.den));
}

void Report::SetP99(const std::string& name, const std::vector<double>& us,
                    const std::string& detail_prefix) {
  const LatencySummary s = Summarize(us);
  if (s.samples == 0) {
    Set(name, "us", std::nullopt, detail_prefix + "no samples");
    return;
  }
  std::string detail = detail_prefix + "n=" + std::to_string(s.samples) +
                       ", " + std::to_string(SamplesBeyond(s.samples, 99)) +
                       " beyond p99";
  if (!s.p99_supported) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "; highest supported p%g = %s us",
                  s.tail_percentile, FormatNumber(s.tail).c_str());
    detail += std::string(" (fewer than 10)") + buf;
  }
  Set(name, "us", s.p99, detail);
}

const Metric* Report::Find(const std::string& name) const {
  for (const Metric& m : metrics_) {
    if (m.name == name) return &m;
  }
  return nullptr;
}

std::string FormatNumber(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  auto [end, ec] = std::to_chars(buf, buf + sizeof(buf), v);
  if (ec != std::errc()) return "null";
  return std::string(buf, end);
}

std::string ResultLine(const Report& report,
                       const std::vector<MetricSpec>& specs, bool correct,
                       uint64_t attempted, uint64_t failed) {
  std::string out = std::string("{\"correct\": ") +
                    (correct ? "true" : "false") +
                    ", \"attempted\": " + std::to_string(attempted) +
                    ", \"failed\": " + std::to_string(failed) +
                    ", \"metrics\": {";
  bool first = true;
  for (const MetricSpec& spec : specs) {
    const Metric* m = report.Find(spec.name);
    const std::string value = m != nullptr && m->value.has_value()
                                  ? FormatNumber(*m->value)
                                  : "null";
    out += std::string(first ? "" : ", ") + "\"" + spec.name +
           "\": {\"value\": " + value + ", \"unit\": \"" + spec.unit + "\"}";
    first = false;
  }
  return out + "}}";
}

std::string FormatTable(const Report& report) {
  std::string out;
  for (const Metric& m : report.metrics()) {
    char line[160];
    std::snprintf(line, sizeof(line), "  %-38s %16s %-15s", m.name.c_str(),
                  m.value.has_value() ? FormatNumber(*m.value).c_str()
                                      : "absent",
                  m.unit.c_str());
    out += line;
    if (!m.detail.empty()) out += " " + m.detail;
    out += "\n";
  }
  return out;
}

}  // namespace perfbench
