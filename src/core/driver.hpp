// Live execution of Programs: the second implementation of the transport
// seam declared in core/io.hpp. A Transport steps every active node through
// one round — inline on this thread (LoopbackTransport) or across real
// sockets (net::SocketTransport) — and the RoundDriver wraps that stepping
// in the exact lock-step semantics of sim::Engine: delivery normal form,
// sleep/wake bookkeeping, Metrics accounting, and per-round trace digests.
// A fault-free execution driven here produces a sim::Report (and, when
// traced, a digest stream) bit-identical to the same Programs run under the
// engine — which is what lets live service executions be replayed and
// shrunk by the forensics plane.
#pragma once

#include <functional>
#include <memory>
#include <queue>
#include <span>
#include <vector>

#include "common/types.hpp"
#include "core/io.hpp"
#include "core/run_options.hpp"
#include "sim/engine.hpp"
#include "sim/payload.hpp"
#include "sim/trace.hpp"

namespace lft::core {

/// Lifecycle effects of one node's round, reported back by a Transport.
struct StepResult {
  bool decided = false;
  std::uint64_t decision = 0;
  bool halted = false;
  /// Latest sleep_until() argument this round, or kNoWake when the node did
  /// not request parking (matches the engine: do_sleep assigns wake_at
  /// unconditionally, and only the last call survives the round).
  Round wake_at = kNoWake;
  std::int64_t fallback_pulls = 0;

  static constexpr Round kNoWake = -1;
};

/// ProtocolIo that buffers one node's round into a message batch and a
/// StepResult — the building block of every live Transport endpoint.
/// Payload bytes are copied into `arena` before send() returns, mirroring
/// the engine's round-scoped payload ownership.
class BatchIo final : public ProtocolIo {
 public:
  BatchIo(NodeId self, sim::PayloadArena& arena, std::vector<sim::Message>& out,
          StepResult& result)
      : self_(self), arena_(&arena), out_(&out), result_(&result) {}

  void send(NodeId to, std::uint32_t tag, std::uint64_t value, std::uint64_t bits,
            sim::PayloadView body) override;
  void decide(std::uint64_t value) override;
  void halt() override { result_->halted = true; }
  void sleep_until(Round wake_round) override { result_->wake_at = wake_round; }
  void count_fallback() override { result_->fallback_pulls += 1; }

 private:
  NodeId self_;
  sim::PayloadArena* arena_;
  std::vector<sim::Message>* out_;
  StepResult* result_;
};

/// Steps all active nodes through one round. The driver owns delivery,
/// bookkeeping, and digests; the transport owns only where the Programs run.
///
/// Contract:
///  - `inboxes[i]` is the delivered batch for `active[i]`, already in the
///    delivery normal form; implementations must not retain the spans.
///  - Each node's sends are appended to `outbox` grouped by sender in
///    ascending `active` order (the engine's ascending-sender batch shape),
///    preserving per-sender send order.
///  - Message bodies appended to `outbox` must stay valid until the NEXT
///    step_round call returns (they back next round's inboxes). Double
///    buffering on `round & 1` — as the engine and LoopbackTransport do —
///    satisfies this.
///  - `results[i]` reports the lifecycle effects of `active[i]`.
class Transport {
 public:
  virtual ~Transport() = default;
  virtual void step_round(Round round, std::span<const NodeId> active,
                          std::span<const std::span<const sim::Message>> inboxes,
                          std::vector<sim::Message>& outbox,
                          std::span<StepResult> results) = 0;
};

/// The trivial Transport: owns the Programs and steps them inline on the
/// calling thread. The deterministic twin of net::SocketTransport — and the
/// reference any Transport implementation must be bit-identical to.
class LoopbackTransport final : public Transport {
 public:
  explicit LoopbackTransport(std::vector<std::unique_ptr<Program>> programs)
      : programs_(std::move(programs)) {}

  void step_round(Round round, std::span<const NodeId> active,
                  std::span<const std::span<const sim::Message>> inboxes,
                  std::vector<sim::Message>& outbox,
                  std::span<StepResult> results) override;

  [[nodiscard]] const Program& program(NodeId v) const {
    return *programs_[static_cast<std::size_t>(v)];
  }

 private:
  std::vector<std::unique_ptr<Program>> programs_;
  sim::PayloadArena arena_[2];  // parity round & 1, exactly like the engine
};

/// Runs n Programs in lock-step over a Transport until every node halts,
/// reproducing the fault-free sim::Engine execution exactly: the same
/// rounds, the same Metrics, the same per-node statuses, and — when
/// options.trace is set — the same per-round RoundDigest stream. Faults are
/// the engine's domain; the driver has no fault plane (options.scratch and
/// options.threads are likewise engine-only knobs and are ignored here).
class RoundDriver {
 public:
  RoundDriver(NodeId n, Transport& transport, const RunOptions& options = {});

  /// Runs to completion: while (step()) {} then finish().
  [[nodiscard]] sim::Report run();

  /// Incremental execution for slot pipelining: advances one lock-step
  /// round per call; returns false once the execution finished (every node
  /// halted or the round cap hit) — the finishing round still executes on
  /// the call that returns false. run() is exactly this loop, so stepping
  /// produces bit-identical Reports and digest streams.
  [[nodiscard]] bool step();
  [[nodiscard]] bool finished() const noexcept { return finished_; }

  /// The final Report; call after step() returns false. Idempotent.
  [[nodiscard]] sim::Report finish() const;

  /// Rewinds all bookkeeping for a fresh execution over the same transport,
  /// keeping allocated buffers — the pooled-scratch path of the service
  /// plane's slot pipeline. The transport's Programs must be reset (or
  /// rebuilt) by the caller.
  void reset();

  /// Swaps the trace sink for the next execution (a pooled slot records
  /// only when asked to).
  void set_trace(sim::TraceSink* trace) noexcept { options_.trace = trace; }

 private:
  void deliver_batch();

  NodeId n_;
  Transport* transport_;
  RunOptions options_;
  Round round_ = 0;
  bool finished_ = false;
  bool completed_ = false;
  std::vector<sim::NodeStatus> status_;
  std::vector<NodeId> active_;  // ascending
  std::vector<NodeId> woken_;
  std::vector<std::uint8_t> sleeping_;
  std::vector<Round> wake_at_;
  std::int64_t sleeping_count_ = 0;
  std::priority_queue<std::pair<Round, NodeId>, std::vector<std::pair<Round, NodeId>>,
                      std::greater<>>
      sleep_heap_;
  std::vector<sim::Message> inbox_;
  std::vector<sim::Message> outbox_;
  std::vector<std::span<const sim::Message>> inbox_spans_;
  std::vector<StepResult> results_;
  sim::Metrics metrics_;
  sim::RoundDigest digest_;

  void wake_by(NodeId v, Round round);
};

}  // namespace lft::core
