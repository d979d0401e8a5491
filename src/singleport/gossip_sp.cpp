#include "singleport/gossip_sp.hpp"

#include "common/assert.hpp"

namespace lft::singleport {

SinglePortGossipProcess::SinglePortGossipProcess(std::shared_ptr<const core::GossipConfig> cfg,
                                                 NodeId self, std::uint64_t rumor)
    : state_(cfg->params.n, self, rumor), adapter_(self) {
  adapter_.add_stage(std::make_unique<core::GossipBuildStage>(cfg, self, state_));
  adapter_.add_stage(std::make_unique<core::GossipShareStage>(cfg, self, state_));
  adapter_.add_stage(std::make_unique<core::GossipFinishStage>(cfg, self, state_,
                                                               /*decide_at_end=*/true,
                                                               /*enable_pull=*/false));
}

SpAction SinglePortGossipProcess::on_round(SpContext& ctx,
                                           const std::optional<sim::Message>& received) {
  return adapter_.on_round(ctx, received);
}

core::GossipOutcome run_single_port_gossip(const core::GossipParams& params,
                                           std::span<const std::uint64_t> rumors,
                                           std::unique_ptr<sim::FaultInjector> adversary) {
  LFT_ASSERT(static_cast<NodeId>(rumors.size()) == params.n);
  auto cfg = core::GossipConfig::build(params);

  sim::Engine engine(params.n, sim::EngineConfig{.crash_budget = params.t});
  for (NodeId v = 0; v < params.n; ++v) {
    engine.set_process(v, std::make_unique<PortProcess>(std::make_unique<SinglePortGossipProcess>(
                              cfg, v, rumors[static_cast<std::size_t>(v)])));
  }
  if (adversary != nullptr) engine.add_fault_injector(std::move(adversary));

  core::GossipOutcome out;
  out.report = engine.run();
  out.termination = out.report.completed;
  out.condition1 = true;
  out.condition2 = true;
  out.rumors_intact = true;
  for (NodeId v = 0; v < params.n; ++v) {
    const auto& status = out.report.nodes[static_cast<std::size_t>(v)];
    const auto& proc = static_cast<const SinglePortGossipProcess&>(
        static_cast<const PortProcess&>(engine.process(v)).inner());
    if (status.crashed) continue;
    if (!proc.state().decided) {
      out.termination = false;
      continue;
    }
    const core::ExtantSet& set = proc.state().extant;
    for (NodeId j = 0; j < params.n; ++j) {
      const auto& js = out.report.nodes[static_cast<std::size_t>(j)];
      if (js.crashed && js.sends == 0 && j != v && set.contains(j)) out.condition1 = false;
      if (!js.crashed && !set.contains(j)) out.condition2 = false;
      if (set.contains(j) && set.rumor(j) != rumors[static_cast<std::size_t>(j)]) {
        out.rumors_intact = false;
      }
    }
  }
  return out;
}

}  // namespace lft::singleport
