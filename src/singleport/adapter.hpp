// The Section 8 construction, generalized: any stage-based protocol whose
// stages declare per-round link budgets and link plans can be executed in
// the single-port model. Each multi-port round r expands into a block of
// max_out(r) + max_in(r) sp-rounds: the node first pushes its queued sends
// one link at a time, then polls each potential in-link once. Budgets are
// node-independent, so all nodes stay block-aligned; every send of a block
// happens in a slot strictly before every poll of that block, so polls pick
// up exactly the block's messages (FIFO queues never accumulate).
#pragma once

#include <map>
#include <memory>
#include <vector>

#include "core/io.hpp"
#include "singleport/port.hpp"

namespace lft::singleport {

class SinglePortStageProcess final : public SinglePortProcess {
 public:
  explicit SinglePortStageProcess(NodeId self) : self_(self) {}

  void add_stage(std::unique_ptr<core::Stage> stage) { stages_.push_back(std::move(stage)); }

  [[nodiscard]] NodeId self() const noexcept { return self_; }
  [[nodiscard]] core::BinaryState& state() noexcept { return state_; }
  [[nodiscard]] const core::BinaryState& state() const noexcept { return state_; }

  SpAction on_round(SpContext& ctx, const std::optional<sim::Message>& received) override;

 private:
  /// Queued payloads live as (offset, length) slices of queued_bytes_, the
  /// per-block pool filled while the wrapped stage runs at slot 0 and stable
  /// until the next block starts — so the SpSend emitted for a slot can view
  /// it directly.
  struct QueuedSend {
    std::uint32_t tag = 0;
    std::uint64_t value = 0;
    std::uint64_t bits = 1;
    std::size_t body_offset = 0;
    std::size_t body_len = 0;
  };

  /// Collects the wrapped stage's sends for slot-by-slot emission.
  class QueueIo final : public core::ProtocolIo {
   public:
    QueueIo(std::map<NodeId, QueuedSend>& queue, std::vector<std::byte>& bytes,
            SpContext& ctx)
        : queue_(&queue), bytes_(&bytes), ctx_(&ctx) {}
    void send(NodeId to, std::uint32_t tag, std::uint64_t value, std::uint64_t bits,
              sim::PayloadView body) override;
    void decide(std::uint64_t value) override { ctx_->decide(value); }
    // Lifecycle control stays with the adapter: stages only send/decide
    // (halting and parking belong to the Process driving the stages), so
    // these are unreachable from the wrapped stage and deliberately inert.
    void halt() override {}
    void sleep_until(Round /*wake_round*/) override {}
    void count_fallback() override { ctx_->count_fallback(); }

   private:
    std::map<NodeId, QueuedSend>* queue_;
    std::vector<std::byte>* bytes_;
    SpContext* ctx_;
  };

  void advance_mp_round();

  NodeId self_;
  std::vector<std::unique_ptr<core::Stage>> stages_;
  core::BinaryState state_;

  std::size_t stage_index_ = 0;
  Round stage_round_ = 0;  // mp-round within the current stage
  Round slot_ = 0;         // sp-slot within the current block
  bool done_ = false;

  core::LinkBudget budget_;
  core::LinkPlan plan_;
  std::map<NodeId, QueuedSend> queued_;  // this block's sends by target
  std::vector<std::byte> queued_bytes_;  // this block's payload pool

  // Polled messages for the next mp-round. Poll payloads are copied into
  // acc_bytes_ (their port-side scratch is call-scoped); the messages
  // record offsets and are rebound to pointers once the block is complete
  // and acc_bytes_ stops growing.
  std::vector<sim::Message> inbox_accumulator_;
  std::vector<std::size_t> acc_offsets_;
  std::vector<std::byte> acc_bytes_;
};

}  // namespace lft::singleport
