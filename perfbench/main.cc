/// deltamon end-to-end benchmark (see README.md).
///
///   deltamon_perfbench --workload oltp_net|bulk_wave|read_write_mix
///                      --seed N --seconds S --trace 0|1
///                      [--trace-out trace.json] [--git-sha SHA]
///                      [--src-digest HEX]
///
/// Prints the environment stamp, a table of every metric with its base,
/// any correctness mismatch, and as the last line one JSON object with the
/// end-to-end (--trace 0) or per-layer (--trace 1) metrics. Exits 1 when
/// any operation failed or any output was wrong.

#include <cstdio>
#include <cstdlib>
#include <string>

#include "workloads.h"

namespace {

int Usage(const char* message) {
  std::fprintf(stderr,
               "%s\nusage: deltamon_perfbench --workload "
               "oltp_net|bulk_wave|read_write_mix --seed N --seconds S "
               "--trace 0|1 [--trace-out PATH] [--git-sha SHA] "
               "[--src-digest HEX]\n",
               message);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace perfbench;
  RunOptions o;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      o.workload = value;
    } else if (flag == "--seed") {
      o.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      o.seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      o.trace = value == "1";
    } else if (flag == "--trace-out") {
      o.trace_out = value;
    } else if (flag == "--git-sha") {
      o.git_sha = value;
    } else if (flag == "--src-digest") {
      o.src_digest = value;
    } else {
      return Usage(("unknown flag " + flag).c_str());
    }
  }
  if (argc % 2 != 1) return Usage("every flag takes a value");
  bool known = false;
  for (const std::string& w : kWorkloads) known = known || w == o.workload;
  if (!known) return Usage("unknown or missing --workload");
  if (!(o.seconds > 0)) return Usage("--seconds must be positive");

  const RunResult r = RunWorkload(o);
  std::printf("env %s\n", r.env.c_str());
  std::printf("%s", FormatTable(r.report).c_str());
  for (const std::string& e : r.errors) std::printf("error: %s\n", e.c_str());
  const bool correct = r.errors.empty();
  std::printf("%s\n",
              ResultLine(r.report, o.trace ? kPerLayerMetrics : kEndToEndMetrics,
                         correct, r.attempted, r.failed)
                  .c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}
