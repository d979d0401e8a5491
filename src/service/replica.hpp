// ReplicaGroup: the service's replication core. Each committed batch runs
// one consensus slot (service/ordering.hpp) on sim::Engine over in-process
// Processes, and is then applied to every replica's StateMachine; the group
// asserts all replicas applied identically (equal log digests) before
// acknowledging.
//
// One slot runs at a time: enqueue() starts a batch's slot, step() advances
// it one lock-step round until head_ready(), and take_head() applies the
// batch and returns the result. commit() is that sequence. The cross-slot
// total order is the slot sequence itself. The slot's execution context
// (Processes + engine scratch) is pooled and reset between slots instead of
// reconstructed.
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
#include <string>
#include <vector>

#include "common/types.hpp"
#include "forensics/trace.hpp"
#include "service/ordering.hpp"
#include "service/state_machine.hpp"

namespace lft::service {

struct ReplicaGroupOptions {
  NodeId n = kDefaultGroupSize;
  std::int64_t t = kDefaultFaultBudget;
  /// When non-empty, the first slot's execution is recorded and saved here
  /// as an LFTTRACE frame replayable by `lft_forensics replay`.
  std::string trace_path;
  /// Unread: perfbench/src/serve.cpp still sets it; the next benchmark change deletes it.
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

  /// Orders `batch` through one consensus slot and applies it to all n
  /// replicas: enqueue, step until head_ready, take_head. Aborts (assert) if
  /// the slot fails to commit or any replica's log digest diverges — either
  /// means the replication core is broken.
  CommitResult commit(std::vector<Command> batch);

  /// Starts `batch`'s consensus slot. Asserts no slot is running.
  void enqueue(std::vector<Command> batch);
  /// Advances the running slot one consensus round.
  void step();
  /// True when the running slot has finished its consensus rounds.
  [[nodiscard]] bool head_ready() const noexcept { return active_ && done_; }
  /// Retires the finished slot: asserts it committed, applies its batch to
  /// every replica, returns the result. The group is idle again after.
  [[nodiscard]] CommitResult take_head();

  /// Replica 0's state machine (identical to every other replica's).
  [[nodiscard]] const StateMachine& machine() const noexcept { return machines_[0]; }
  [[nodiscard]] std::uint64_t slots() const noexcept { return slots_; }
  [[nodiscard]] NodeId n() const noexcept { return options_.n; }
  [[nodiscard]] bool trace_saved() const noexcept { return trace_saved_; }

 private:
  /// The black box records the first slot only.
  [[nodiscard]] bool recording() const noexcept {
    return !options_.trace_path.empty() && !trace_saved_;
  }

  ReplicaGroupOptions options_;
  std::vector<StateMachine> machines_;
  forensics::TraceRecorder recorder_;  // before ctx_: its engine may point here
  SlotContext ctx_;                     // pooled: reset by every enqueue()
  std::vector<Command> batch_;          // the running slot's commands
  bool active_ = false;  // enqueued and not yet taken
  bool done_ = false;    // the running slot finished its rounds
  std::uint64_t slots_ = 0;
  bool trace_saved_ = false;
};

}  // namespace lft::service
