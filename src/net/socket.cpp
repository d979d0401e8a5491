#include "net/socket.hpp"

#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

#include "common/assert.hpp"

namespace lft::net {

void Fd::reset(int fd) noexcept {
  if (fd_ >= 0) ::close(fd_);
  fd_ = fd;
}

Fd listen_tcp(std::uint16_t& port, int backlog) {
  Fd fd(::socket(AF_INET, SOCK_STREAM, 0));
  LFT_ASSERT_MSG(fd.valid(), "socket() failed");
  const int one = 1;
  ::setsockopt(fd.get(), SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  LFT_ASSERT_MSG(::bind(fd.get(), reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) == 0,
                 "bind() failed");
  LFT_ASSERT_MSG(::listen(fd.get(), backlog) == 0, "listen() failed");

  socklen_t len = sizeof(addr);
  LFT_ASSERT(::getsockname(fd.get(), reinterpret_cast<sockaddr*>(&addr), &len) == 0);
  port = ntohs(addr.sin_port);
  return fd;
}

Fd connect_tcp(std::uint16_t port) {
  Fd fd(::socket(AF_INET, SOCK_STREAM, 0));
  LFT_ASSERT_MSG(fd.valid(), "socket() failed");
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::connect(fd.get(), reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    return Fd{};
  }
  set_nodelay(fd);
  return fd;
}

Fd accept_one(const Fd& listener) {
  const int fd = ::accept(listener.get(), nullptr, nullptr);
  if (fd < 0) return Fd{};
  Fd accepted(fd);
  set_nodelay(accepted);
  return accepted;
}

void set_nonblocking(const Fd& fd, bool nonblocking) {
  const int flags = ::fcntl(fd.get(), F_GETFL, 0);
  LFT_ASSERT(flags >= 0);
  const int updated = nonblocking ? (flags | O_NONBLOCK) : (flags & ~O_NONBLOCK);
  LFT_ASSERT(::fcntl(fd.get(), F_SETFL, updated) == 0);
}

void set_nodelay(const Fd& fd) {
  const int one = 1;
  // Fails harmlessly on non-TCP sockets.
  (void)::setsockopt(fd.get(), IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
}

bool send_all(const Fd& fd, std::span<const std::byte> bytes) {
  std::size_t sent = 0;
  while (sent < bytes.size()) {
    const ssize_t k =
        ::send(fd.get(), bytes.data() + sent, bytes.size() - sent, MSG_NOSIGNAL);
    if (k < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    if (k == 0) return false;
    sent += static_cast<std::size_t>(k);
  }
  return true;
}

IoResult recv_some(const Fd& fd, std::span<std::byte> buf) {
  for (;;) {
    const ssize_t k = ::recv(fd.get(), buf.data(), buf.size(), MSG_DONTWAIT);
    if (k > 0) return {static_cast<std::size_t>(k), false};
    if (k == 0) return {0, true};  // orderly EOF
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) return {0, false};
    return {0, true};
  }
}

IoResult writev_some(const Fd& fd, std::span<const std::byte> a,
                     std::span<const std::byte> b) {
  iovec iov[2];
  int iovcnt = 0;
  if (!a.empty()) {
    iov[iovcnt].iov_base = const_cast<std::byte*>(a.data());
    iov[iovcnt].iov_len = a.size();
    ++iovcnt;
  }
  if (!b.empty()) {
    iov[iovcnt].iov_base = const_cast<std::byte*>(b.data());
    iov[iovcnt].iov_len = b.size();
    ++iovcnt;
  }
  if (iovcnt == 0) return {0, false};
  msghdr msg{};
  msg.msg_iov = iov;
  msg.msg_iovlen = static_cast<std::size_t>(iovcnt);
  for (;;) {
    const ssize_t k = ::sendmsg(fd.get(), &msg, MSG_NOSIGNAL | MSG_DONTWAIT);
    if (k >= 0) return {static_cast<std::size_t>(k), false};
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) return {0, false};
    return {0, true};
  }
}

}  // namespace lft::net
