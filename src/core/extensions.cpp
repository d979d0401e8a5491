#include "core/extensions.hpp"

#include "common/assert.hpp"

namespace lft::core {

namespace {

/// Gossip the inputs as rumors, then vectorized consensus over 2n instances:
/// [0, n) membership, [n, 2n) membership-with-input-1.
class AggregateProcess final : public sim::Process {
 public:
  AggregateProcess(std::shared_ptr<const GossipConfig> gossip_cfg,
                   std::shared_ptr<const VectorConsensusConfig> vec_cfg, NodeId self,
                   int input)
      : n_(gossip_cfg->params.n),
        gossip_state_(n_, self, static_cast<std::uint64_t>(input)),
        vector_state_(vec_cfg->instances) {
    driver_.add(std::make_unique<GossipBuildStage>(gossip_cfg, self, gossip_state_));
    driver_.add(std::make_unique<GossipShareStage>(gossip_cfg, self, gossip_state_));
    driver_.add(std::make_unique<GossipFinishStage>(gossip_cfg, self, gossip_state_,
                                                    /*decide_at_end=*/false));
    add_vector_consensus_stages(driver_, vec_cfg, self, vector_state_, [this]() {
      DynamicBitset seed(2 * static_cast<std::size_t>(n_));
      gossip_state_.extant.known().for_each([&](std::size_t j) {
        seed.set(j);
        if (gossip_state_.extant.rumor(static_cast<NodeId>(j)) == 1) {
          seed.set(static_cast<std::size_t>(n_) + j);
        }
      });
      return seed;
    });
  }

  void on_round(sim::Context& ctx, const sim::Inbox& inbox) override {
    ContextIo io(ctx);
    if (driver_.drive(ctx.round(), inbox.all(), io)) io.halt();
  }

  [[nodiscard]] const VectorState& vector_state() const noexcept { return vector_state_; }

  /// Derived aggregates, valid when decided. An instance n+j may be raised
  /// while instance j is not (per-instance flooding is independent), so the
  /// ones-count intersects both halves.
  [[nodiscard]] std::pair<std::int64_t, std::int64_t> aggregates() const {
    LFT_ASSERT(vector_state_.has_value);
    const DynamicBitset& v = *vector_state_.value;
    std::int64_t members = 0;
    std::int64_t ones = 0;
    for (NodeId j = 0; j < n_; ++j) {
      if (!v.test(static_cast<std::size_t>(j))) continue;
      ++members;
      if (v.test(static_cast<std::size_t>(n_ + j))) ++ones;
    }
    return {members, ones};
  }

 private:
  NodeId n_;
  GossipState gossip_state_;
  VectorState vector_state_;
  StageDriver driver_;
};

}  // namespace

AggregateOutcome run_majority_consensus(const CheckpointParams& params,
                                        std::span<const int> inputs,
                                        std::unique_ptr<sim::FaultInjector> adversary) {
  const NodeId n = params.consensus.n;
  LFT_ASSERT(static_cast<NodeId>(inputs.size()) == n);
  auto gossip_cfg = GossipConfig::build(params.gossip);
  auto vec_cfg = VectorConsensusConfig::build(params.consensus, 2 * n);

  sim::EngineConfig engine_config;
  engine_config.crash_budget = params.consensus.t;
  engine_config.omission_budget = params.consensus.t;
  sim::Engine engine(n, engine_config);
  for (NodeId v = 0; v < n; ++v) {
    engine.set_process(v, std::make_unique<AggregateProcess>(gossip_cfg, vec_cfg, v,
                                                             inputs[static_cast<std::size_t>(v)]));
  }
  if (adversary != nullptr) engine.add_fault_injector(std::move(adversary));

  AggregateOutcome out;
  out.report = engine.run();
  out.termination = out.report.completed;
  out.agreement = true;
  for (NodeId v = 0; v < n; ++v) {
    const auto& vs = out.report.nodes[static_cast<std::size_t>(v)];
    if (vs.crashed || vs.omission) continue;  // faulty nodes are exempt
    const auto& proc = static_cast<const AggregateProcess&>(engine.process(v));
    if (!proc.vector_state().decided) {
      out.termination = false;
      continue;
    }
    const auto [members, ones] = proc.aggregates();
    if (out.members < 0) {
      out.members = members;
      out.ones = ones;
    } else if (out.members != members || out.ones != ones) {
      out.agreement = false;
    }
  }
  if (out.members >= 0) out.majority = (2 * out.ones > out.members) ? 1 : 0;
  return out;
}

}  // namespace lft::core
