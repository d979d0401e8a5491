// The single-port model (Section 8): per round a node may send at most one
// message to one chosen target and poll at most one inbound port. Each
// directed link is a FIFO queue; a poll dequeues one message, and nodes get
// no signal that messages are waiting on a port.
//
// The model changes the link discipline, not the synchronous round model, so
// it runs on sim::Engine: a PortProcess hosts one SinglePortProcess as an
// ordinary sim::Process and keeps that node's inbound ports itself. Crashes
// come from the engine's fault plane (sim::make_scheduled and friends); its
// post-step phase sees each node's action through EngineView::process,
// downcast to PortProcess.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <unordered_map>
#include <vector>

#include "common/types.hpp"
#include "sim/engine.hpp"
#include "sim/message.hpp"

namespace lft::singleport {

struct SpSend {
  NodeId to = kNoNode;
  std::uint32_t tag = 0;
  std::uint64_t value = 0;
  std::uint64_t bits = 1;
  /// Payload view; must stay valid until on_round returns to the PortProcess,
  /// which copies it into the engine's round arena right away.
  sim::PayloadView body{};
};

/// A node's move for one round: optionally send one message and/or poll one
/// inbound port (poll == kNoNode means no poll).
struct SpAction {
  std::optional<SpSend> send;
  NodeId poll = kNoNode;
};

/// The engine Context as a single-port node sees it: no send (the returned
/// SpAction carries it), plus whether the node halted this round.
class SpContext {
 public:
  explicit SpContext(sim::Context& ctx) : ctx_(&ctx) {}
  [[nodiscard]] NodeId self() const noexcept { return ctx_->self(); }
  [[nodiscard]] NodeId num_nodes() const noexcept { return ctx_->num_nodes(); }
  [[nodiscard]] Round round() const noexcept { return ctx_->round(); }
  void decide(std::uint64_t value) { ctx_->decide(value); }
  [[nodiscard]] bool has_decided() const noexcept { return ctx_->has_decided(); }
  [[nodiscard]] std::uint64_t decision() const noexcept { return ctx_->decision(); }
  /// Stops the node now: the send of the action returned this round is
  /// dropped and not accounted.
  void halt() {
    ctx_->halt();
    halted_ = true;
  }
  void count_fallback() { ctx_->count_fallback(); }
  [[nodiscard]] bool halted() const noexcept { return halted_; }

 private:
  sim::Context* ctx_;
  bool halted_ = false;
};

class SinglePortProcess {
 public:
  virtual ~SinglePortProcess() = default;
  /// `received` is the message dequeued by this node's poll in the previous
  /// round, if any. Its body views a per-node scratch buffer that is valid
  /// only for the duration of this call — copy the bytes out to keep them.
  virtual SpAction on_round(SpContext& ctx, const std::optional<sim::Message>& received) = 0;
};

/// Runs a SinglePortProcess as one sim::Engine node. Each round it appends
/// the delivered messages (sent last round) to their per-source FIFO ports,
/// resolves last round's poll — so a poll sees every message sent in the
/// round it was issued, as the model requires — hands the result to the
/// hosted process, and emits the returned send unless the process halted.
class PortProcess final : public sim::Process {
 public:
  explicit PortProcess(std::unique_ptr<SinglePortProcess> inner) : inner_(std::move(inner)) {}

  void on_round(sim::Context& ctx, const sim::Inbox& inbox) override;

  [[nodiscard]] SinglePortProcess& inner() noexcept { return *inner_; }
  [[nodiscard]] const SinglePortProcess& inner() const noexcept { return *inner_; }
  /// The action the hosted process returned in its latest round (what a
  /// post-step adversary inspects). The send's body view is the process's
  /// own storage and may not outlive that round.
  [[nodiscard]] const SpAction& action() const noexcept { return action_; }

 private:
  /// FIFO link queue backed by flat buffers: POD messages plus a pooled byte
  /// buffer holding their payloads in the same FIFO order (strict FIFO means
  /// the payload of buf[head] always starts at bytes_head — no offsets
  /// stored). Pops advance the heads, and the dead prefixes are compacted
  /// once they dominate, so steady-state traffic on a link reuses its
  /// capacity instead of churning per-message allocations.
  struct PortQueue {
    std::vector<sim::Message> buf;
    std::vector<std::byte> bytes;
    std::size_t head = 0;
    std::size_t bytes_head = 0;

    [[nodiscard]] bool empty() const noexcept { return head >= buf.size(); }
    void push(const sim::Message& m);
    /// Copies the payload into `payload_out` and returns the message with
    /// its body viewing that buffer.
    sim::Message pop(std::vector<std::byte>& payload_out);
  };

  std::unique_ptr<SinglePortProcess> inner_;
  SpAction action_;
  std::unordered_map<NodeId, PortQueue> ports_;  // inbound links by source
  std::vector<std::byte> received_bytes_;        // body of the polled message
};

}  // namespace lft::singleport
