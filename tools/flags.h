#ifndef DELTAMON_TOOLS_FLAGS_H_
#define DELTAMON_TOOLS_FLAGS_H_

#include <cstdlib>
#include <cstring>

namespace deltamon::tools {

/// Parses `arg` as `<prefix>N` with N a non-negative decimal integer.
/// False when `arg` does not start with `prefix`, or when N is empty,
/// negative, or followed by anything else — so a caller that falls through
/// to its usage text rejects `--threads=abc`, `--threads=4x` and
/// `--threads=-2` instead of running with a value nobody asked for.
inline bool ParseLong(const char* arg, const char* prefix, long* out) {
  const size_t n = std::strlen(prefix);
  if (std::strncmp(arg, prefix, n) != 0) return false;
  char* end = nullptr;
  *out = std::strtol(arg + n, &end, 10);
  return end != arg + n && *end == '\0' && *out >= 0;
}

}  // namespace deltamon::tools

#endif  // DELTAMON_TOOLS_FLAGS_H_
