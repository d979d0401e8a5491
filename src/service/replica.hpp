// ReplicaGroup: the service's replication core. Each committed batch runs
// one consensus slot (service/ordering.hpp) on sim::Engine — over in-process
// Processes, or over proxies of net::SocketTransport's replica threads —
// and is then applied to every replica's StateMachine; the group asserts all
// replicas applied identically (equal log digests) before acknowledging.
//
// Slots run through a pipeline of depth D (ReplicaGroupOptions::pipeline):
// enqueue() admits a batch while earlier slots are still running their
// consensus rounds, step() advances every in-flight slot one lock-step
// round, and take_head() retires slots strictly in enqueue order — the
// cross-slot total order is the FIFO, so pipelining changes throughput, not
// the log. The server steps until the head slot is done before it polls
// again, so in practice it rarely has more than one slot in flight. Slot
// contexts (Processes + engine scratch) are pooled and reset between slots
// instead of reconstructed.
//
// Retire applies the batch to all n replicas' StateMachines (arena-backed
// logs, so an apply is an append, not an allocation), asserts every
// replica's Applied equals replica 0's per command, and compares the n log
// digests once per slot.
//
// When `trace_path` is set, the first slot's execution is recorded and saved
// as an LFTTRACE file that `lft_forensics replay` re-executes under the
// engine: the live service's black box recorder.
#pragma once

#include <cstdint>
#include <deque>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "common/types.hpp"
#include "service/ordering.hpp"
#include "service/state_machine.hpp"

namespace lft::service {

struct ReplicaGroupOptions {
  NodeId n = kDefaultGroupSize;
  std::int64_t t = kDefaultFaultBudget;
  /// false: slot Processes run inline on the engine; true: each replica
  /// runs on its own thread behind a socketpair (net::SocketTransport) and
  /// the engine steps a proxy per replica.
  bool use_sockets = false;
  /// When non-empty, the first slot's execution is recorded and saved here
  /// as an LFTTRACE frame replayable by `lft_forensics replay`.
  std::string trace_path;
  /// Slot pipeline depth D: how many consensus slots may be in flight at
  /// once. 1 reproduces the strictly serial commit path.
  int pipeline = 1;
};

/// Outcome of one committed batch.
struct CommitResult {
  std::vector<Applied> applied;    ///< per command, in batch order
  Round slot_rounds = 0;           ///< rounds the consensus slot took
  std::int64_t slot_messages = 0;  ///< messages the slot exchanged
  std::uint64_t slot_fingerprint = 0;  ///< the slot Report's fingerprint
};

class ReplicaGroup {
 public:
  explicit ReplicaGroup(ReplicaGroupOptions options = {});
  ~ReplicaGroup();

  /// Synchronous path: orders `batch` through one consensus slot and applies
  /// it to all n replicas. Requires an idle pipeline (no slots in flight).
  /// Aborts (assert) if the slot fails to commit or any replica's log digest
  /// diverges — either means the replication core is broken.
  CommitResult commit(std::span<const Command> batch);

  // --- pipelined interface -------------------------------------------------
  // The server enqueues batches while the pipeline has room, step()s until
  // the head slot is done, and retires finished heads between reactor polls.

  [[nodiscard]] bool can_enqueue() const noexcept {
    return live_.size() < static_cast<std::size_t>(depth());
  }
  /// Admits `batch` as the next slot (FIFO). Asserts can_enqueue().
  void enqueue(std::vector<Command> batch);
  /// Advances every in-flight slot one consensus round.
  void step();
  /// True when the oldest in-flight slot has finished its consensus rounds.
  [[nodiscard]] bool head_ready() const noexcept;
  /// Retires the oldest slot: asserts it committed, applies its batch to
  /// every replica, returns the result. Slots retire strictly in enqueue
  /// order — only the head is ever accessible.
  [[nodiscard]] CommitResult take_head();
  [[nodiscard]] std::size_t in_flight() const noexcept { return live_.size(); }
  [[nodiscard]] int depth() const noexcept {
    return options_.pipeline < 1 ? 1 : options_.pipeline;
  }

  /// Replica 0's state machine (identical to every other replica's).
  [[nodiscard]] const StateMachine& machine() const noexcept { return machines_[0]; }
  [[nodiscard]] std::uint64_t slots() const noexcept { return slots_; }
  [[nodiscard]] NodeId n() const noexcept { return options_.n; }
  [[nodiscard]] bool trace_saved() const noexcept { return trace_saved_; }

 private:
  struct Slot;

  std::unique_ptr<Slot> acquire_slot();

  ReplicaGroupOptions options_;
  std::vector<StateMachine> machines_;
  std::deque<std::unique_ptr<Slot>> live_;   // FIFO: front is the oldest slot
  std::vector<std::unique_ptr<Slot>> pool_;  // finished contexts, ready to reset
  std::uint64_t slots_ = 0;
  bool trace_saved_ = false;
  bool trace_pending_ = false;  // a recording slot is in flight
};

}  // namespace lft::service
