// deltamon-replay: re-executes a captured `deltamon.wave.v1` file (from
// `dump waves "path";` or GET /debug/waves) against an engine rebuilt from
// an AMOSQL init script, and asserts the replayed check phases produce
// bit-identical outcomes — influents, root Δ-sets, and firings.
//
//   $ deltamon-replay --waves=waves.json --init=schema.sql
//   REPLAY 3 waves, 2 commits: identical
//
// --threads / --kernels override the engine settings for the replay; the
// outcome comparison deliberately ignores settings, so a recording taken
// at --threads=8 --kernels=on must replay identically at --threads=1
// --kernels=off (the determinism contract of docs/observability.md).

#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "amosql/session.h"
#include "flags.h"
#include "obs/report.h"
#include "obs/wave_recorder.h"
#include "rules/wave_replay.h"

using namespace deltamon;

namespace {

int Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --waves=FILE --init=FILE [options]\n"
               "  --waves=FILE    deltamon.wave.v1 capture to replay\n"
               "  --init=FILE     AMOSQL script rebuilding the schema, rules\n"
               "                  and pre-capture state\n"
               "  --threads=N     replay with N propagation threads (0..%lld)\n"
               "  --kernels=on|off replay with batch kernels on or off\n",
               argv0,
               static_cast<long long>(amosql::SetThreadsStmt::kMaxThreads));
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string waves_file;
  std::string init_file;
  long threads = -1;
  int kernels = -1;
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    if (std::strncmp(arg, "--waves=", 8) == 0) {
      waves_file = arg + 8;
    } else if (std::strncmp(arg, "--init=", 7) == 0) {
      init_file = arg + 7;
    } else if (std::strncmp(arg, "--threads=", 10) == 0) {
      if (!tools::ParseLong(arg, "--threads=", &threads) ||
          threads > amosql::SetThreadsStmt::kMaxThreads) {
        return Usage(argv[0]);
      }
    } else if (std::strcmp(arg, "--kernels=on") == 0) {
      kernels = 1;
    } else if (std::strcmp(arg, "--kernels=off") == 0) {
      kernels = 0;
    } else {
      return Usage(argv[0]);
    }
  }
  if (waves_file.empty() || init_file.empty()) return Usage(argv[0]);

  Result<std::string> waves_text = obs::ReadTextFile(waves_file);
  if (!waves_text.ok()) {
    std::fprintf(stderr, "deltamon-replay: cannot read %s: %s\n",
                 waves_file.c_str(), waves_text.status().ToString().c_str());
    return 1;
  }
  Result<std::vector<obs::WaveRecord>> recorded =
      obs::ParseWaveFile(*waves_text);
  if (!recorded.ok()) {
    std::fprintf(stderr, "deltamon-replay: %s: %s\n", waves_file.c_str(),
                 recorded.status().ToString().c_str());
    return 1;
  }

  Result<std::string> init_text = obs::ReadTextFile(init_file);
  if (!init_text.ok()) {
    std::fprintf(stderr, "deltamon-replay: cannot read %s: %s\n",
                 init_file.c_str(), init_text.status().ToString().c_str());
    return 1;
  }
  Engine engine;
  amosql::Session session(engine);
  Result<amosql::QueryResult> init =
      amosql::ExecuteStatement(session, *init_text);
  if (!init.ok()) {
    std::fprintf(stderr, "deltamon-replay: init script failed: %s\n",
                 init.status().ToString().c_str());
    return 1;
  }
  if (session.txn_snapshot().HasWrites()) {
    std::fprintf(stderr,
                 "deltamon-replay: init script leaves uncommitted writes; "
                 "end it with commit;\n");
    return 1;
  }

  if (threads >= 0) {
    engine.rules.SetNumThreads(static_cast<size_t>(threads));
  }
  if (kernels >= 0) engine.rules.SetKernelsEnabled(kernels == 1);

  Result<rules::WaveReplayReport> report =
      rules::ReplayWaves(engine.db, engine.rules, *recorded);
  if (!report.ok()) {
    std::fprintf(stderr, "deltamon-replay: %s\n",
                 report.status().ToString().c_str());
    return 1;
  }
  std::fprintf(stdout, "%s", report->ToString().c_str());
  return report->ok() ? 0 : 1;
}
