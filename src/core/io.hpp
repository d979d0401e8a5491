// Protocol/stage abstractions. The paper's algorithms are sequences of
// time-separated parts (flooding, local probing, notification, value
// spreading, inquiry phases); each part is a Stage driven round by round.
// Stages are engine-agnostic: the multi-port StageProcess drives them on the
// sim::Engine, and the single-port adapter (src/singleport) expands each
// stage round into send/poll slots using the stage's declared link plans —
// the Section 8 construction.
//
// ProtocolIo is the per-round seam: it carries the complete surface a
// protocol participant needs (send, decide, halt, sleep, fallback
// accounting), so protocol code never touches sim::Context directly. Its two
// implementations are ContextIo (a node stepped by sim::Engine, in a
// simulation or a live service slot alike) and the single-port adapter's
// QueueIo.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "common/types.hpp"
#include "sim/engine.hpp"
#include "sim/message.hpp"

namespace lft::core {

/// What a protocol participant can do to the outside world during a round.
/// This is the full per-node surface: the engine's Context (via ContextIo)
/// and the single-port adapter's QueueIo both implement it, so protocol code
/// written against ProtocolIo runs under either model unchanged.
class ProtocolIo {
 public:
  virtual ~ProtocolIo() = default;
  /// Payload bytes are copied out before send returns (into the engine's
  /// round arena or the adapter's block pool), so `body` may view scratch
  /// storage that is reused right after the call.
  virtual void send(NodeId to, std::uint32_t tag, std::uint64_t value, std::uint64_t bits = 1,
                    sim::PayloadView body = {}) = 0;
  /// Irrevocable decision (forwarded to the engine's bookkeeping).
  virtual void decide(std::uint64_t value) = 0;
  /// Voluntarily stops participating from the next round on.
  virtual void halt() = 0;
  /// Requests that this node not be stepped again before `wake_round`
  /// unless a message for it is delivered first (delivery always wakes the
  /// recipient). Purely a stepping optimization: drivers may ignore it
  /// only if they step every round anyway.
  virtual void sleep_until(Round wake_round) = 0;
  /// Marks one activation of a certified-pull epilogue (see DESIGN.md).
  virtual void count_fallback() = 0;
};

/// Static per-round link bounds (identical at every node), used by the
/// single-port adapter to size its send/poll slots.
struct LinkBudget {
  int max_out = 0;
  int max_in = 0;
};

/// This node's usable links at a given stage round: `out` lists targets it
/// may send to (superset of actual sends), `in` lists sources whose messages
/// sent this round it must poll for.
struct LinkPlan {
  std::vector<NodeId> out;
  std::vector<NodeId> in;
};

/// One time-separated part of a protocol at one node.
class Stage {
 public:
  virtual ~Stage() = default;

  /// Number of rounds this stage occupies. Must be the same at every node.
  [[nodiscard]] virtual Round duration() const = 0;

  /// Drives local round r (0-based within the stage). `inbox` contains only
  /// messages sent during this stage's rounds (stages own disjoint tag
  /// ranges and are time-separated).
  virtual void on_round(Round r, std::span<const sim::Message> inbox, ProtocolIo& io) = 0;

  /// Single-port support: global per-round link bounds...
  [[nodiscard]] virtual LinkBudget link_budget(Round /*r*/) const { return {}; }
  /// ...and this node's link plan for round r.
  [[nodiscard]] virtual LinkPlan link_plan(Round /*r*/) const { return {}; }

  /// Event-driven support: called after on_round(r), returns the earliest
  /// stage-local round at which this node must be activated again absent
  /// incoming messages (message delivery always reactivates a node). The
  /// default r + 1 keeps the node stepped every round; returning duration()
  /// parks it for the rest of the stage. Only override when skipped rounds
  /// provably have no spontaneous action AND the stage's on_round tolerates
  /// round jumps.
  [[nodiscard]] virtual Round quiescent_until(Round r) const { return r + 1; }

  /// Pooling support: restores the stage to its freshly-constructed state so
  /// the same object can run another execution without reallocation. Returns
  /// false when unsupported (the default) — callers must then rebuild the
  /// process instead. Overrides must leave the stage indistinguishable from
  /// a new construction with the same arguments (shared immutable graphs are
  /// kept; only per-execution scratch rewinds).
  [[nodiscard]] virtual bool reset() { return false; }
};

/// Shared per-node protocol state threaded through consecutive stages.
struct BinaryState {
  int candidate = 0;          // current candidate decision value (0/1)
  bool has_value = false;     // holds the common value (has decided)
  std::uint64_t value = 0;    // the common value once acquired
  bool survived_probe = false;
  bool is_little = false;
};

/// Sequences stages over engine rounds (round offsets are implicit in the
/// stage durations). Shared by all multi-port protocol processes.
class StageDriver {
 public:
  void add(std::unique_ptr<Stage> stage) {
    stages_.push_back(std::move(stage));
    total_cached_ = -1;
  }

  [[nodiscard]] Round total_duration() const;
  [[nodiscard]] const Stage& stage(std::size_t i) const { return *stages_[i]; }

  /// Drives the stage owning `round`; returns true when this was the last
  /// round of the last stage (the caller should halt).
  bool drive(Round round, std::span<const sim::Message> inbox, ProtocolIo& io);

  /// Absolute round before which the node driven at `round` needs no further
  /// activation absent messages (see Stage::quiescent_until). Capped at the
  /// final protocol round so halting rounds match the always-stepped
  /// execution.
  [[nodiscard]] Round quiescent_until(Round round) const;

  /// Rewinds the round cursor and resets every stage; false when any stage
  /// declines (the driver is then in a torn state and must be discarded).
  [[nodiscard]] bool reset_stages() {
    current_ = 0;
    stage_start_ = 0;
    for (auto& stage : stages_) {
      if (!stage->reset()) return false;
    }
    return true;
  }

 private:
  std::vector<std::unique_ptr<Stage>> stages_;
  std::size_t current_ = 0;
  Round stage_start_ = 0;
  mutable Round total_cached_ = -1;
};

/// Multi-port driver process for protocols whose shared state is a
/// BinaryState (AEA, SCV, both consensus algorithms).
class StageProcess final : public sim::Process {
 public:
  explicit StageProcess(NodeId self) : self_(self) {}

  void add_stage(std::unique_ptr<Stage> stage) { driver_.add(std::move(stage)); }

  [[nodiscard]] NodeId self() const noexcept { return self_; }
  [[nodiscard]] Round total_duration() const { return driver_.total_duration(); }
  [[nodiscard]] StageDriver& driver() noexcept { return driver_; }

  void on_round(sim::Context& ctx, const sim::Inbox& inbox) override;

  /// Post-run inspection.
  [[nodiscard]] const BinaryState& state() const noexcept { return state_; }
  [[nodiscard]] BinaryState& state() noexcept { return state_; }
  [[nodiscard]] const Stage& stage(std::size_t i) const { return driver_.stage(i); }

  /// Pooling support: rewinds the process for a fresh execution — stage
  /// cursor to 0, every stage reset, shared state to `initial`. False when
  /// any stage lacks reset support; the process must then be rebuilt.
  [[nodiscard]] bool reset(const BinaryState& initial) {
    if (!driver_.reset_stages()) return false;
    state_ = initial;
    return true;
  }

 private:
  NodeId self_;
  StageDriver driver_;
  BinaryState state_;
};

/// Adapts the engine context to ProtocolIo: every protocol Process's
/// on_round drives its stages through one. A zero-cost forwarding shim —
/// every method inlines to the corresponding Context call, so driving
/// protocols through the seam costs nothing on the engine hot path.
class ContextIo final : public ProtocolIo {
 public:
  explicit ContextIo(sim::Context& ctx) : ctx_(&ctx) {}
  void send(NodeId to, std::uint32_t tag, std::uint64_t value, std::uint64_t bits,
            sim::PayloadView body) override {
    ctx_->send(to, tag, value, bits, body);
  }
  void decide(std::uint64_t value) override { ctx_->decide(value); }
  void halt() override { ctx_->halt(); }
  void sleep_until(Round wake_round) override { ctx_->sleep_until(wake_round); }
  void count_fallback() override { ctx_->count_fallback(); }

 private:
  sim::Context* ctx_;
};

}  // namespace lft::core
