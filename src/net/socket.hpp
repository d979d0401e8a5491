// Thin POSIX socket layer for the service plane: RAII fds, localhost TCP
// helpers, and a whole-buffer send loop. Everything here is
// Linux-flavored (epoll lives next door in net/epoll.hpp); SIGPIPE is
// suppressed per send with MSG_NOSIGNAL.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <utility>

namespace lft::net {

/// RAII file descriptor: closes on destruction, move-only.
class Fd {
 public:
  Fd() = default;
  explicit Fd(int fd) noexcept : fd_(fd) {}
  Fd(Fd&& other) noexcept : fd_(other.release()) {}
  Fd& operator=(Fd&& other) noexcept {
    if (this != &other) {
      reset(other.release());
    }
    return *this;
  }
  Fd(const Fd&) = delete;
  Fd& operator=(const Fd&) = delete;
  ~Fd() { reset(); }

  [[nodiscard]] int get() const noexcept { return fd_; }
  [[nodiscard]] bool valid() const noexcept { return fd_ >= 0; }
  [[nodiscard]] int release() noexcept { return std::exchange(fd_, -1); }
  void reset(int fd = -1) noexcept;

 private:
  int fd_ = -1;
};

/// Listens on 127.0.0.1:`port` (0 picks a free port); on return `port` holds
/// the actual bound port. Aborts on resource exhaustion (these are
/// fail-fast developer tools, not a hardened server core).
[[nodiscard]] Fd listen_tcp(std::uint16_t& port, int backlog = 64);

/// Blocking connect to 127.0.0.1:`port`; invalid Fd on refusal.
[[nodiscard]] Fd connect_tcp(std::uint16_t port);

/// Accepts one pending connection; invalid Fd if none is pending.
[[nodiscard]] Fd accept_one(const Fd& listener);

void set_nonblocking(const Fd& fd, bool nonblocking);
/// Disables Nagle on TCP sockets: a small proposal or ack must leave at
/// once, not wait to coalesce.
void set_nodelay(const Fd& fd);

/// Blocking whole-buffer send; returns false when the peer is gone.
[[nodiscard]] bool send_all(const Fd& fd, std::span<const std::byte> bytes);

/// Result of one nonblocking I/O attempt: `n` bytes moved (0 when the
/// socket would block) or closed/error.
struct IoResult {
  std::size_t n = 0;
  bool closed = false;  // EOF or hard error: drop the connection
};

/// One nonblocking recv into `buf`; n == 0 with !closed means EAGAIN.
[[nodiscard]] IoResult recv_some(const Fd& fd, std::span<std::byte> buf);

/// One nonblocking vectored send of up to two spans (a wrapped ring
/// buffer's readable halves) in a single syscall; may write fewer bytes
/// than offered. SIGPIPE suppressed via MSG_NOSIGNAL.
[[nodiscard]] IoResult writev_some(const Fd& fd, std::span<const std::byte> a,
                                   std::span<const std::byte> b = {});

}  // namespace lft::net
