#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "report.h"

namespace perfbench {

inline const std::vector<std::string> kWorkloads = {"oltp_net", "bulk_wave",
                                                    "read_write_mix"};

struct RunOptions {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  /// Traced run: half the time untraced, half traced; prints per-layer
  /// metrics instead of end-to-end ones.
  bool trace = false;
  /// Where a traced run writes its Chrome trace (empty: not written).
  std::string trace_out;
  /// Identity of the code under test, for the environment stamp.
  std::string git_sha = "unknown";
  std::string src_digest = "unknown";
};

struct RunResult {
  Report report;
  /// Non-retryable failures and correctness mismatches, described.
  std::vector<std::string> errors;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  /// One-line JSON environment stamp.
  std::string env;
};

RunResult RunWorkload(const RunOptions& options);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
