#include "core/checkpointing.hpp"

#include "common/assert.hpp"

namespace lft::core {

CheckpointParams CheckpointParams::practical(NodeId n, std::int64_t t) {
  CheckpointParams p;
  p.gossip = GossipParams::practical(n, t);
  p.gossip.rumor_bits = 1;  // dummy rumor
  p.consensus = ConsensusParams::practical(n, t);
  // Keep checkpointing's overlays separate from any concurrently cached
  // plain-consensus run at the same (n, t).
  p.gossip.overlay_tag = 0xC0DE;
  p.consensus.overlay_tag = 0xC0DE;
  return p;
}

CheckpointProcess::CheckpointProcess(std::shared_ptr<const GossipConfig> gossip_cfg,
                                     std::shared_ptr<const VectorConsensusConfig> vec_cfg,
                                     NodeId self)
    : gossip_state_(gossip_cfg->params.n, self, /*rumor=*/1),
      vector_state_(vec_cfg->params.n) {
  driver_.add(std::make_unique<GossipBuildStage>(gossip_cfg, self, gossip_state_));
  driver_.add(std::make_unique<GossipShareStage>(gossip_cfg, self, gossip_state_));
  driver_.add(std::make_unique<GossipFinishStage>(gossip_cfg, self, gossip_state_,
                                                  /*decide_at_end=*/false));
  // Seed the vectorized consensus input from the gossip result: instance i
  // gets input 1 iff node i is present in the local extant set.
  add_vector_consensus_stages(driver_, vec_cfg, self, vector_state_,
                              [this]() { return gossip_state_.extant.known(); });
}

void CheckpointProcess::on_round(sim::Context& ctx, const sim::Inbox& inbox) {
  ContextIo io(ctx);
  if (driver_.drive(ctx.round(), inbox.all(), io)) io.halt();
}

const DynamicBitset& CheckpointProcess::decided_set() const {
  LFT_ASSERT(vector_state_.has_value);
  return *vector_state_.value;
}

CheckpointOutcome run_checkpointing(const CheckpointParams& params,
                                    std::unique_ptr<sim::FaultInjector> adversary,
                                    const RunOptions& options) {
  auto gossip_cfg = GossipConfig::build(params.gossip);
  auto vec_cfg = VectorConsensusConfig::build(params.consensus);

  sim::EngineConfig engine_config;
  engine_config.crash_budget = params.consensus.t;
  engine_config.omission_budget = params.consensus.t;
  engine_config.threads = options.threads;
  engine_config.scratch = options.scratch;
  engine_config.trace = options.trace;
  engine_config.telemetry = options.telemetry;
  sim::Engine engine(params.consensus.n, engine_config);
  for (NodeId v = 0; v < params.consensus.n; ++v) {
    engine.set_process(v, std::make_unique<CheckpointProcess>(gossip_cfg, vec_cfg, v));
  }
  if (adversary != nullptr) engine.add_fault_injector(std::move(adversary));

  CheckpointOutcome out;
  out.report = engine.run();
  out.termination = out.report.completed;
  out.condition1 = true;
  out.condition2 = true;
  out.condition3 = true;

  const DynamicBitset* reference = nullptr;
  for (NodeId v = 0; v < params.consensus.n; ++v) {
    const auto& status = out.report.nodes[static_cast<std::size_t>(v)];
    // Omission-faulty holders are exempt, as in gossip: their decided sets
    // may legitimately be incomplete.
    if (status.crashed || status.omission) continue;
    const auto& proc = static_cast<const CheckpointProcess&>(engine.process(v));
    if (!proc.vector_state().decided) {
      out.termination = false;
      continue;
    }
    const DynamicBitset& set = proc.decided_set();
    if (reference == nullptr) {
      reference = &set;
    } else if (!(*reference == set)) {
      out.condition3 = false;
    }
    for (NodeId j = 0; j < params.consensus.n; ++j) {
      const auto& js = out.report.nodes[static_cast<std::size_t>(j)];
      if (js.crashed && js.sends == 0 && set.test(static_cast<std::size_t>(j))) {
        out.condition1 = false;
      }
      // Condition (2) exempts omission-faulty nodes, as in gossip: their
      // checkpoints may have been lost in transit.
      if (!js.crashed && !js.omission && !set.test(static_cast<std::size_t>(j))) {
        out.condition2 = false;
      }
    }
  }
  return out;
}

}  // namespace lft::core
