// SocketTransport: consensus replicas behind real sockets. Every node's
// Program runs on its own replica thread behind an AF_UNIX socketpair and
// speaks a length-prefixed binary protocol (net/frame.hpp + common/codec)
// with the hub: one request frame per round carrying the node's delivered
// batch, one response frame carrying its sends and lifecycle effects.
//
// The round loop stays sim::Engine's. Each node is installed in the engine
// as a proxy Process (proxy()) whose on_round makes that round trip and
// replays the response through sim::Context: the sends in their original
// order, then decide / halt / sleep_until / count_fallback. The engine steps
// proxies in ascending node order exactly as it steps in-process Processes,
// so a slot over sockets produces the same Report and trace digests as the
// same Programs run in-process — same Programs, different wire.
#pragma once

#include <memory>
#include <thread>
#include <vector>

#include "core/io.hpp"
#include "net/socket.hpp"
#include "sim/engine.hpp"

namespace lft::net {

class SocketTransport {
 public:
  /// Takes ownership of the Programs and spawns one replica thread each.
  explicit SocketTransport(std::vector<std::unique_ptr<core::Program>> programs);
  ~SocketTransport();
  SocketTransport(const SocketTransport&) = delete;
  SocketTransport& operator=(const SocketTransport&) = delete;

  /// An engine-side stand-in for a replica; install one at every node v,
  /// and it steps replica v (Context::self()). Borrows this transport, which
  /// must outlive it; the engine must step serially (one blocking round
  /// trip per node at a time).
  [[nodiscard]] std::unique_ptr<sim::Process> proxy();

 private:
  class Proxy;
  struct Replica {
    Fd hub_end;
    std::thread thread;
  };

  /// One node's round: ship its inbox, wait for the response, replay it.
  void round_trip(sim::Context& ctx, const sim::Inbox& inbox);

  std::vector<Replica> replicas_;
  std::vector<std::byte> request_;   // reused encode buffer
  std::vector<std::byte> response_;  // reused decode buffer
};

}  // namespace lft::net
