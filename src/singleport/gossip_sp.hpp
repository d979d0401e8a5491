// Single-port gossip (the Table 1 "Yes" for the gossip/checkpointing row):
// the gossip stages already declare per-round link budgets and plans
// (inquiry graphs G_i and the little overlay G), so the generic Section 8
// adapter runs them directly. The pull epilogue is disabled — its little-node
// in-degree is unbounded — and its dormancy is still metered: nodes lacking
// a certified set surface through the fallback counter.
#pragma once

#include <memory>
#include <span>

#include "core/gossip.hpp"
#include "sim/faults.hpp"
#include "singleport/adapter.hpp"

namespace lft::singleport {

class SinglePortGossipProcess final : public SinglePortProcess {
 public:
  SinglePortGossipProcess(std::shared_ptr<const core::GossipConfig> cfg, NodeId self,
                          std::uint64_t rumor);

  SpAction on_round(SpContext& ctx, const std::optional<sim::Message>& received) override;

  [[nodiscard]] const core::GossipState& state() const noexcept { return state_; }

 private:
  core::GossipState state_;
  SinglePortStageProcess adapter_;
};

/// Runs gossip in the single-port model under the given fault injector
/// (nullptr = no faults; crash budget params.t) and evaluates the same
/// conditions as core::run_gossip.
[[nodiscard]] core::GossipOutcome run_single_port_gossip(
    const core::GossipParams& params, std::span<const std::uint64_t> rumors,
    std::unique_ptr<sim::FaultInjector> adversary);

}  // namespace lft::singleport
