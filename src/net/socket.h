#ifndef DELTAMON_NET_SOCKET_H_
#define DELTAMON_NET_SOCKET_H_

#include <cstdint>
#include <string>
#include <string_view>

#include "common/status.h"

namespace deltamon::net {

/// Thin Status-returning wrappers over the POSIX socket calls the server
/// and client need. All fds are plain ints owned by the caller.

/// Non-blocking listening socket bound to 0.0.0.0:`port` (SO_REUSEADDR);
/// port 0 binds an ephemeral port — read it back with LocalPort.
Result<int> ListenTcp(uint16_t port, int backlog = 128);

/// The port a bound socket actually listens on.
Result<uint16_t> LocalPort(int fd);

/// Blocking connected socket (TCP_NODELAY) to host:port. `host` must be a
/// numeric IPv4 address ("127.0.0.1") or "localhost".
Result<int> ConnectTcp(const std::string& host, uint16_t port);

Status SetNonBlocking(int fd);
Status SetNoDelay(int fd);

/// Blocking send of the whole buffer to socket `fd` (retries on EINTR /
/// partial writes). A closed peer is an error status, never a SIGPIPE.
Status WriteAll(int fd, std::string_view data);

/// Blocking read of up to `n` bytes; 0 means orderly EOF.
Result<size_t> ReadSome(int fd, char* buf, size_t n);

/// close() ignoring EINTR; safe on -1.
void CloseFd(int fd);

}  // namespace deltamon::net

#endif  // DELTAMON_NET_SOCKET_H_
