#include "singleport/linear_consensus.hpp"

#include "common/assert.hpp"
#include "core/stages.hpp"

namespace lft::singleport {

std::unique_ptr<SinglePortStageProcess> make_linear_consensus_process(
    const core::ConsensusParams& p, NodeId self, int input) {
  LFT_ASSERT(input == 0 || input == 1);
  LFT_ASSERT_MSG(5 * p.t < p.n, "Linear-Consensus requires t < n/5");
  LFT_ASSERT_MSG(!p.use_little_pull && !p.guarantee_termination,
                 "use core::ConsensusParams::single_port for the single-port model");

  // The process holds the config, so the graphs its stages borrow outlive
  // them.
  auto config = core::shared_consensus_config(p, core::few_crashes_request(p));
  const core::ConsensusOverlays& overlays = config->overlays;
  auto proc = std::make_unique<SinglePortStageProcess>(self, std::move(config));
  proc->state().candidate = input;
  proc->state().is_little = self < p.little_count;

  const graph::Graph& g = *overlays.little_g;
  proc->add_stage(std::make_unique<core::FloodRumorStage>(self, p.little_count, g,
                                                          p.flood_rounds_little, proc->state()));
  proc->add_stage(std::make_unique<core::ProbeStage>(self, p.little_count, g,
                                                     p.probe_gamma_little, p.probe_delta_little,
                                                     proc->state(), /*decide_on_survive=*/true));
  // Section 8: the star notification costs ceil(n/5t) slots per little node,
  // which is O(t) only when t >= sqrt(n); below that, longer SCV flooding
  // seeded by the little deciders replaces it.
  if (p.t * p.t >= static_cast<std::int64_t>(p.n)) {
    proc->add_stage(
        std::make_unique<core::NotifyRelatedStage>(self, p.n, p.little_count, proc->state()));
  }
  proc->add_stage(std::make_unique<core::SpreadFloodStage>(self, *overlays.spread_h,
                                                           p.spread_rounds, proc->state()));
  proc->add_stage(
      std::make_unique<core::InquiryPhasesStage>(self, overlays.inquiry, proc->state()));
  return proc;
}

core::ConsensusOutcome run_linear_consensus(const core::ConsensusParams& params,
                                            std::span<const int> inputs,
                                            std::unique_ptr<sim::FaultInjector> adversary) {
  LFT_ASSERT(static_cast<NodeId>(inputs.size()) == params.n);
  sim::Engine engine(params.n, sim::EngineConfig{.crash_budget = params.t});
  for (NodeId v = 0; v < params.n; ++v) {
    engine.set_process(v, std::make_unique<PortProcess>(make_linear_consensus_process(
                              params, v, inputs[static_cast<std::size_t>(v)])));
  }
  if (adversary != nullptr) engine.add_fault_injector(std::move(adversary));
  return core::evaluate_consensus(engine.run(), inputs);
}

}  // namespace lft::singleport
