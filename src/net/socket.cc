#include "net/socket.h"

#include <arpa/inet.h>
#include <errno.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cstring>

namespace deltamon::net {

namespace {

Status Errno(const std::string& what) {
  return Status::Internal(what + ": " + std::strerror(errno));
}

}  // namespace

Result<int> ListenTcp(uint16_t port, int backlog) {
  int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  if (fd < 0) return Errno("socket");
  int one = 1;
  if (::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one)) < 0) {
    Status s = Errno("setsockopt(SO_REUSEADDR)");
    CloseFd(fd);
    return s;
  }
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_ANY);
  addr.sin_port = htons(port);
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0) {
    Status s = Errno("bind(port " + std::to_string(port) + ")");
    CloseFd(fd);
    return s;
  }
  if (::listen(fd, backlog) < 0) {
    Status s = Errno("listen");
    CloseFd(fd);
    return s;
  }
  return fd;
}

Result<uint16_t> LocalPort(int fd) {
  sockaddr_in addr{};
  socklen_t len = sizeof(addr);
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) < 0) {
    return Errno("getsockname");
  }
  return static_cast<uint16_t>(ntohs(addr.sin_port));
}

Result<int> ConnectTcp(const std::string& host, uint16_t port) {
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  const std::string numeric = host == "localhost" ? "127.0.0.1" : host;
  if (::inet_pton(AF_INET, numeric.c_str(), &addr.sin_addr) != 1) {
    return Status::InvalidArgument("bad IPv4 address '" + host + "'");
  }
  int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) return Errno("socket");
  while (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0) {
    if (errno == EINTR) continue;
    Status s = Errno("connect(" + host + ":" + std::to_string(port) + ")");
    CloseFd(fd);
    return s;
  }
  if (Status s = SetNoDelay(fd); !s.ok()) {
    CloseFd(fd);
    return s;
  }
  return fd;
}

Status SetNonBlocking(int fd) {
  int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags < 0) return Errno("fcntl(F_GETFL)");
  if (::fcntl(fd, F_SETFL, flags | O_NONBLOCK) < 0) {
    return Errno("fcntl(F_SETFL, O_NONBLOCK)");
  }
  return Status::OK();
}

Status SetNoDelay(int fd) {
  int one = 1;
  if (::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one)) < 0) {
    return Errno("setsockopt(TCP_NODELAY)");
  }
  return Status::OK();
}

Status WriteAll(int fd, std::string_view data) {
  while (!data.empty()) {
    ssize_t n = ::send(fd, data.data(), data.size(), MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return Errno("send");
    }
    data.remove_prefix(static_cast<size_t>(n));
  }
  return Status::OK();
}

Result<size_t> ReadSome(int fd, char* buf, size_t n) {
  while (true) {
    ssize_t r = ::read(fd, buf, n);
    if (r >= 0) return static_cast<size_t>(r);
    if (errno == EINTR) continue;
    return Errno("read");
  }
}

void CloseFd(int fd) {
  if (fd >= 0) ::close(fd);
}

}  // namespace deltamon::net
