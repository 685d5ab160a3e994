#include "obs/provenance.h"

#include <utility>

namespace deltamon::obs {

Json FiringRecord::ToJson() const {
  Json out = Json::Object();
  out.Set("seq", static_cast<int64_t>(seq));
  out.Set("trace_id", static_cast<int64_t>(trace_id));
  out.Set("version", static_cast<int64_t>(version));
  out.Set("rule", rule);
  out.Set("round", static_cast<int64_t>(round));
  Json rendered = Json::Array();
  for (const std::string& i : instances) rendered.Append(i);
  out.Set("instances", std::move(rendered));
  out.Set("captured_instances", static_cast<int64_t>(captured_instances));
  out.Set("total_instances", static_cast<int64_t>(total_instances));
  out.Set("lineage", lineage);
  return out;
}

ProcessLog<FiringRecord>& GlobalProvenanceLog() {
  static auto* log = new ProcessLog<FiringRecord>(128);
  return *log;
}

Json ProvenanceJson(const std::vector<FiringRecord>& records, bool enabled,
                    size_t capacity, uint64_t total, uint64_t dropped) {
  Json firings = Json::Array();
  for (const FiringRecord& r : records) firings.Append(r.ToJson());
  Json out = Json::Object();
  out.Set("enabled", enabled);
  out.Set("capacity", static_cast<int64_t>(capacity));
  out.Set("total_records", static_cast<int64_t>(total));
  out.Set("dropped_records", static_cast<int64_t>(dropped));
  out.Set("firings", std::move(firings));
  return out;
}

std::string FormatProvenance(const std::vector<FiringRecord>& records,
                             bool enabled, uint64_t total, uint64_t dropped) {
  std::string out = "FIRING PROVENANCE (";
  out += enabled ? "on" : "off";
  out += ", " + std::to_string(records.size()) + " recorded";
  if (dropped > 0) out += ", " + std::to_string(dropped) + " dropped";
  out += ", " + std::to_string(total) + " total)\n";
  for (const FiringRecord& r : records) {
    out += "[" + std::to_string(r.seq) + "] " + r.rule + " fired on " +
           std::to_string(r.total_instances) + " instance(s) (trace " +
           std::to_string(r.trace_id) + ", version " +
           std::to_string(r.version) + ", round " + std::to_string(r.round) +
           ")\n";
    for (const std::string& i : r.instances) {
      out += "  " + i + "\n";
    }
    if (r.captured_instances < r.total_instances) {
      out += "  (lineage captured for first " +
             std::to_string(r.captured_instances) + ")\n";
    }
  }
  return out;
}

}  // namespace deltamon::obs
