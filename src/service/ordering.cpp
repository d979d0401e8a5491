#include "service/ordering.hpp"

#include <utility>

#include "common/assert.hpp"
#include "core/consensus.hpp"
#include "core/params.hpp"

namespace lft::service {

namespace {

/// Hands a pooled process to a per-slot engine without giving up ownership.
class Borrowed final : public sim::Process {
 public:
  explicit Borrowed(sim::Process& target) : target_(&target) {}
  void on_round(sim::Context& ctx, const sim::Inbox& inbox) override {
    target_->on_round(ctx, inbox);
  }

 private:
  sim::Process* target_;
};

}  // namespace

SlotOutcome evaluate_slot(sim::Report report) {
  SlotOutcome out;
  out.committed = report.completed;
  for (const auto& node : report.nodes) {
    out.committed = out.committed && node.decided && node.decision == 1;
  }
  out.report = std::move(report);
  return out;
}

SlotOutcome run_slot_on_engine(NodeId n, std::int64_t t, const core::RunOptions& options) {
  const auto params = core::ConsensusParams::practical(n, t);
  auto factory = [&](NodeId v) {
    return core::make_few_crashes_process(params, v, /*input=*/1);
  };
  return evaluate_slot(core::run_system(n, t, factory, /*adversary=*/nullptr, options));
}

void SlotContext::begin(sim::TraceSink* trace) {
  // The last slot's engine goes first: it borrows the processes and hands
  // its buffers back to scratch_ for the next one.
  engine_.reset();
  sim::EngineConfig config;
  config.scratch = &scratch_;
  config.trace = trace;
  engine_.emplace(n_, config);
  const auto params = core::ConsensusParams::practical(n_, t_);
  processes_.resize(static_cast<std::size_t>(n_));
  for (NodeId v = 0; v < n_; ++v) {
    auto& proc = processes_[static_cast<std::size_t>(v)];
    if (proc == nullptr || !core::reset_few_crashes_process(*proc, params, /*input=*/1)) {
      proc = core::make_few_crashes_process(params, v, /*input=*/1);
    }
    engine_->set_process(v, std::make_unique<Borrowed>(*proc));
  }
}

}  // namespace lft::service
