#include "service/replica.hpp"

#include <utility>

#include "common/assert.hpp"
#include "scenarios/scenarios.hpp"

namespace lft::service {

ReplicaGroup::ReplicaGroup(ReplicaGroupOptions options)
    : options_(std::move(options)), ctx_(options_.n, options_.t) {
  LFT_ASSERT_MSG(options_.n >= 1 && options_.t >= 0 && options_.t < options_.n,
                 "replica group needs 0 <= t < n");
  machines_.resize(static_cast<std::size_t>(options_.n));
}

void ReplicaGroup::enqueue(std::vector<Command> batch) {
  LFT_ASSERT_MSG(!active_, "enqueue() while a slot is running");
  batch_ = std::move(batch);
  active_ = true;
  done_ = false;
  ctx_.begin(recording() ? &recorder_ : nullptr);
}

void ReplicaGroup::step() {
  LFT_ASSERT_MSG(active_, "step() without a running slot");
  if (!done_) done_ = !ctx_.step();
}

CommitResult ReplicaGroup::take_head() {
  LFT_ASSERT_MSG(head_ready(), "take_head() without a finished slot");
  active_ = false;

  auto outcome = ctx_.finish();
  // The slot is the ordering barrier — its unanimous decision 1 is what
  // authorizes applying the batch at the same log position on every replica.
  LFT_ASSERT_MSG(outcome.committed, "consensus slot failed to commit");

  if (recording()) {
    forensics::Trace trace = recorder_.take();
    trace.meta.scenario = kSlotScenarioName;
    trace.meta.seed = 0;  // the slot is seed-independent
    trace.meta.n = options_.n;
    trace.meta.t = options_.t;
    trace.meta.threads = 1;
    trace.report_fingerprint = scenarios::fingerprint(outcome.report);
    trace_saved_ = save_trace(trace, options_.trace_path);
    LFT_ASSERT_MSG(trace_saved_, "failed to save service slot trace");
  }

  CommitResult result;
  result.slot_rounds = outcome.report.rounds;
  result.slot_messages = outcome.report.metrics.messages_total;
  result.slot_fingerprint = scenarios::fingerprint(outcome.report);
  // Machine-major apply order: each replica's log and dedup map stay hot
  // across the whole batch (command-major order bounces all n working sets
  // per command). The cross-replica agreement check is unchanged.
  result.applied.reserve(batch_.size());
  for (const Command& cmd : batch_) {
    result.applied.push_back(machines_[0].apply(cmd));
  }
  for (std::size_t v = 1; v < machines_.size(); ++v) {
    StateMachine& m = machines_[v];
    for (std::size_t i = 0; i < batch_.size(); ++i) {
      const Applied a = m.apply(batch_[i]);
      LFT_ASSERT_MSG(a.index == result.applied[i].index &&
                         a.duplicate == result.applied[i].duplicate,
                     "replica state machines diverged on apply");
    }
  }
  const std::uint64_t digest = machines_[0].digest();
  for (const StateMachine& m : machines_) {
    LFT_ASSERT_MSG(m.digest() == digest, "replica log digests diverged");
  }
  ++slots_;

  batch_.clear();
  return result;
}

CommitResult ReplicaGroup::commit(std::vector<Command> batch) {
  enqueue(std::move(batch));
  while (!head_ready()) step();
  return take_head();
}

}  // namespace lft::service
