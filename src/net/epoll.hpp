// The service's readiness loop: register fds with callbacks, dispatch one
// epoll wait-batch at a time. Single-threaded by design — the service
// server runs one loop on one thread, which keeps its dispatch order a
// function of the kernel's ready list and nothing else.
#pragma once

#include <cstdint>
#include <functional>
#include <unordered_map>

namespace lft::net {

/// The one readiness backend. A one-value enum, kept only because
/// perfbench/src/serve.cpp still sets ServerOptions::backend to it.
enum class ReactorBackend { kEpoll };

class EpollLoop {
 public:
  /// Called with the ready event mask (EPOLLIN | EPOLLHUP | ...).
  using Callback = std::function<void(std::uint32_t events)>;

  EpollLoop();
  ~EpollLoop();
  EpollLoop(const EpollLoop&) = delete;
  EpollLoop& operator=(const EpollLoop&) = delete;

  /// Registers `fd` (not owned) for `events` (EPOLLIN, EPOLLET etc.).
  void add(int fd, std::uint32_t events, Callback cb);
  void modify(int fd, std::uint32_t events);
  void remove(int fd);

  /// Waits up to `timeout_ms` (-1 blocks, 0 polls) and dispatches every
  /// ready callback once; returns the number dispatched. Callbacks may
  /// add/remove fds, including removing themselves. The ready list is
  /// drained fully — when a wait-batch comes back at capacity, epoll_wait
  /// is polled again (timeout 0) until the batch is short, so a burst of
  /// >64 ready sessions can't starve late-registered fds for a dispatch
  /// cycle.
  int wait(int timeout_ms);

  [[nodiscard]] std::size_t watched() const noexcept { return callbacks_.size(); }

 private:
  int epoll_fd_ = -1;
  std::unordered_map<int, Callback> callbacks_;
};

}  // namespace lft::net
