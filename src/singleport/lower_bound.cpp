#include "singleport/lower_bound.hpp"

#include <memory>
#include <optional>
#include <utility>

#include "common/assert.hpp"
#include "common/hash.hpp"
#include "singleport/linear_consensus.hpp"

namespace lft::singleport {

namespace {

/// Wraps a single-port process and records its observable history: for each
/// round, a digest of (received message, returned action).
class RecordingProcess final : public SinglePortProcess {
 public:
  explicit RecordingProcess(std::unique_ptr<SinglePortProcess> inner)
      : inner_(std::move(inner)) {}

  SpAction on_round(SpContext& ctx, const std::optional<sim::Message>& received) override {
    if (received.has_value() && !first_receipt_.has_value()) {
      first_receipt_ = ctx.round();
      first_sender_ = received->from;
    }
    const SpAction action = inner_->on_round(ctx, received);
    std::uint64_t h = trace_.empty() ? 0x74726163ULL : trace_.back();
    if (received.has_value()) {
      h = hash_combine(h, static_cast<std::uint64_t>(received->from));
      h = hash_combine(h, received->value);
      h = hash_combine(h, hash_bytes(received->body()));
    } else {
      h = hash_combine(h, 0x6e6f6e65ULL);
    }
    if (action.send.has_value()) {
      h = hash_combine(h, static_cast<std::uint64_t>(action.send->to));
      h = hash_combine(h, action.send->value);
      h = hash_combine(h, hash_bytes(action.send->body));
    }
    h = hash_combine(h, static_cast<std::uint64_t>(action.poll));
    h = hash_combine(h, ctx.has_decided() ? 1 + ctx.decision() : 0);
    trace_.push_back(h);
    return action;
  }

  /// Cumulative trace digest after each round.
  [[nodiscard]] const std::vector<std::uint64_t>& trace() const noexcept { return trace_; }
  [[nodiscard]] std::optional<Round> first_receipt() const noexcept { return first_receipt_; }
  [[nodiscard]] NodeId first_sender() const noexcept { return first_sender_; }

 private:
  std::unique_ptr<SinglePortProcess> inner_;
  std::vector<std::uint64_t> trace_;
  std::optional<Round> first_receipt_;
  NodeId first_sender_ = kNoNode;
};

struct TracedRun {
  sim::Report report;
  std::vector<std::vector<std::uint64_t>> traces;  // per node
  std::optional<Round> victim_first_receipt;
  NodeId victim_first_sender = kNoNode;
};

TracedRun run_traced(const core::ConsensusParams& params, std::span<const int> inputs,
                     const std::vector<NodeId>& crash_at_zero, NodeId victim) {
  const auto budget = static_cast<std::int64_t>(crash_at_zero.size());
  sim::Engine engine(params.n, sim::EngineConfig{.crash_budget = budget});
  for (NodeId v = 0; v < params.n; ++v) {
    engine.set_process(v, std::make_unique<PortProcess>(std::make_unique<RecordingProcess>(
                              make_linear_consensus_process(
                                  params, v, inputs[static_cast<std::size_t>(v)]))));
  }
  std::vector<sim::CrashEvent> events;
  for (NodeId v : crash_at_zero) events.push_back(sim::CrashEvent{0, v, 0.0});
  if (!events.empty()) engine.add_fault_injector(sim::make_scheduled(std::move(events)));
  TracedRun run;
  run.report = engine.run();
  run.traces.reserve(static_cast<std::size_t>(params.n));
  for (NodeId v = 0; v < params.n; ++v) {
    const auto& rec =
        static_cast<const RecordingProcess&>(static_cast<PortProcess&>(engine.process(v)).inner());
    run.traces.push_back(rec.trace());
    if (v == victim) {
      run.victim_first_receipt = rec.first_receipt();
      run.victim_first_sender = rec.first_sender();
    }
  }
  return run;
}

}  // namespace

IsolationResult run_port_isolation(NodeId n, std::int64_t t, NodeId victim) {
  LFT_ASSERT(victim >= 0 && victim < n);
  const auto params = core::ConsensusParams::single_port(n, t);
  std::vector<int> inputs(static_cast<std::size_t>(n), 0);
  inputs[static_cast<std::size_t>(victim == 0 ? 1 : 0)] = 1;

  std::vector<NodeId> crash_set;
  IsolationResult result;
  // Iteratively crash the earliest node that manages to deliver to the
  // victim; each crash strictly extends the victim's silence.
  while (true) {
    TracedRun run = run_traced(params, inputs, crash_set, victim);
    result.protocol_rounds = run.report.rounds;
    result.crashes_used = static_cast<std::int64_t>(crash_set.size());
    if (crash_set.empty()) {
      result.baseline_receipt =
          run.victim_first_receipt.value_or(run.report.rounds);
    }
    if (!run.victim_first_receipt.has_value()) {
      result.victim_starved = true;
      result.isolation_rounds = run.report.rounds;
      break;
    }
    result.isolation_rounds = *run.victim_first_receipt;
    if (static_cast<std::int64_t>(crash_set.size()) >= t) break;
    LFT_ASSERT(run.victim_first_sender != kNoNode && run.victim_first_sender != victim);
    crash_set.push_back(run.victim_first_sender);
  }
  return result;
}

DivergenceResult run_divergence_experiment(NodeId n, std::int64_t t) {
  const auto params = core::ConsensusParams::single_port(n, t);
  std::vector<int> zeros(static_cast<std::size_t>(n), 0);
  std::vector<int> one_seed = zeros;
  one_seed[0] = 1;  // flood-of-ones protocols decide 1 from a single seed

  TracedRun e0 = run_traced(params, zeros, {}, 0);
  TracedRun e1 = run_traced(params, one_seed, {}, 0);

  DivergenceResult result;
  result.rounds = std::max(e0.report.rounds, e1.report.rounds);
  result.diverged_per_round.assign(static_cast<std::size_t>(result.rounds), 0);
  for (NodeId v = 0; v < n; ++v) {
    const auto& t0 = e0.traces[static_cast<std::size_t>(v)];
    const auto& t1 = e1.traces[static_cast<std::size_t>(v)];
    // First round where the observable histories differ (shorter trace =
    // halted earlier = divergence at the cut).
    const std::size_t common = std::min(t0.size(), t1.size());
    std::size_t diverge_at = common;
    for (std::size_t i = 0; i < common; ++i) {
      if (t0[i] != t1[i]) {
        diverge_at = i;
        break;
      }
    }
    if (diverge_at == common && t0.size() == t1.size()) continue;  // never diverged
    for (std::size_t r = diverge_at; r < result.diverged_per_round.size(); ++r) {
      ++result.diverged_per_round[r];
    }
  }
  const auto d0 = e0.report.agreed_value();
  const auto d1 = e1.report.agreed_value();
  result.decisions_differ = d0.has_value() && d1.has_value() && *d0 != *d1;
  return result;
}

}  // namespace lft::singleport
