// Linear-Consensus (Theorem 12): the single-port adaptation of
// Few-Crashes-Consensus. Parts 1-2 of AEA expand into 2d-slot blocks on the
// constant-degree overlay G; the related-node star is scheduled link by link
// when t >= sqrt(n) (n/5t <= t slots) and replaced by longer SCV Part 1
// flooding otherwise, per the Section 8 prose; SCV Part 2 uses inquiry
// graphs capped at degree 3t+1. Runs in O(t + log n) sp-rounds with
// O(n + t log n) message bits.
#pragma once

#include <memory>
#include <span>

#include "core/consensus.hpp"
#include "core/params.hpp"
#include "sim/faults.hpp"
#include "singleport/adapter.hpp"

namespace lft::singleport {

/// Builds the Linear-Consensus process for one node. `params` should come
/// from core::ConsensusParams::single_port.
[[nodiscard]] std::unique_ptr<SinglePortStageProcess> make_linear_consensus_process(
    const core::ConsensusParams& params, NodeId self, int input);

/// Runs Linear-Consensus on sim::Engine (one PortProcess per node) under the
/// given fault injector, e.g. sim::make_scheduled(events); nullptr = no
/// faults. The crash budget is params.t.
[[nodiscard]] core::ConsensusOutcome run_linear_consensus(
    const core::ConsensusParams& params, std::span<const int> inputs,
    std::unique_ptr<sim::FaultInjector> adversary);

}  // namespace lft::singleport
