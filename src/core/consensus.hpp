// Assemblies of the paper's crash-model algorithms from stages:
//   Almost-Everywhere-Agreement  (Figure 1, Theorem 5)
//   Spread-Common-Value          (Figure 2, Theorem 6)
//   Few-Crashes-Consensus        (Figure 3, Theorem 7)
//   Many-Crashes-Consensus       (Figure 4, Theorem 8, Corollary 1)
// plus runner helpers that execute a full system and evaluate the consensus
// invariants (agreement, validity, termination).
#pragma once

#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "core/io.hpp"
#include "core/params.hpp"
#include "core/run_options.hpp"
#include "graph/graph.hpp"
#include "graph/overlay.hpp"
#include "graph/phase_graph.hpp"
#include "sim/adversary.hpp"
#include "sim/engine.hpp"

namespace lft::core {

/// The little-node overlay G of AEA (Figure 1), on the little_count little
/// nodes; its degree is at least 1 even when t = 0.
[[nodiscard]] graph::OverlaySpec little_overlay_spec(const ConsensusParams& params);

/// Which overlays one process or configuration uses. `inquiry_phases` > 0
/// asks for the inquiry graph family G_i (Lemma 5): degree
/// inquiry_base * 2^(i+1) capped at inquiry_cap, each phase on its own
/// overlay, tagged from `inquiry_tag`.
struct OverlayRequest {
  bool little_g = false;
  bool spread_h = false;  ///< H of SCV (Figure 2)
  bool all_g = false;     ///< G on all n nodes (Figure 4)
  int inquiry_phases = 0;
  std::uint64_t inquiry_tag = 0;
};

/// The requested overlays; the ones not requested stay null / empty.
struct ConsensusOverlays {
  std::shared_ptr<const graph::Graph> little_g;
  std::shared_ptr<const graph::Graph> spread_h;
  std::shared_ptr<const graph::Graph> all_g;
  std::vector<graph::PhaseGraph> inquiry;
};

/// Fetches every requested overlay in one graph::shared_overlays batch.
/// Inquiry phases too large to materialise are implicit PhaseGraphs.
[[nodiscard]] ConsensusOverlays consensus_overlays(const ConsensusParams& params,
                                                   const OverlayRequest& request);

/// Figure 1. `input` is the node's binary input.
[[nodiscard]] std::unique_ptr<StageProcess> make_aea_process(const ConsensusParams& params,
                                                             NodeId self, int input);

/// Figure 2. `initial` is the common value at initialized nodes, nullopt at
/// the rest (the problem's "null").
[[nodiscard]] std::unique_ptr<StageProcess> make_scv_process(
    const ConsensusParams& params, NodeId self, std::optional<std::uint64_t> initial);

/// Figure 3 (AEA followed by SCV in one timeline).
[[nodiscard]] std::unique_ptr<StageProcess> make_few_crashes_process(
    const ConsensusParams& params, NodeId self, int input);

/// Figure 4.
[[nodiscard]] std::unique_ptr<StageProcess> make_many_crashes_process(
    const ConsensusParams& params, NodeId self, int input);

/// Pooling support (the service plane's pooled slot context): rewinds a process
/// built by make_few_crashes_process to the state a fresh construction with
/// `input` would have — every stage reset, shared BinaryState reinitialized.
/// False when any stage lacks reset support; the caller rebuilds instead.
[[nodiscard]] bool reset_few_crashes_process(StageProcess& proc,
                                             const ConsensusParams& params, int input);

/// Consensus invariants evaluated over a finished execution.
struct ConsensusOutcome {
  sim::Report report;
  bool termination = false;  // completed and every non-faulty node decided
  bool agreement = false;    // no two non-faulty nodes decided differently
  bool validity = false;     // the decision equals some node's input
  std::optional<std::uint64_t> decision;

  [[nodiscard]] bool all_good() const { return termination && agreement && validity; }
};

[[nodiscard]] ConsensusOutcome evaluate_consensus(sim::Report report,
                                                  std::span<const int> inputs);

/// Builds the engine, installs processes from `factory(self)`, runs, and
/// evaluates. The adversary may be null. Execution knobs (round cap,
/// parallel stepper, scratch recycling, trace recording) travel in
/// core::RunOptions; none of them changes any Report bit.
using ProcessFactory = std::function<std::unique_ptr<sim::Process>(NodeId)>;
[[nodiscard]] sim::Report run_system(NodeId n, std::int64_t crash_budget,
                                     const ProcessFactory& factory,
                                     std::unique_ptr<sim::FaultInjector> adversary,
                                     const RunOptions& options = {});

[[nodiscard]] ConsensusOutcome run_few_crashes_consensus(
    const ConsensusParams& params, std::span<const int> inputs,
    std::unique_ptr<sim::FaultInjector> adversary);

[[nodiscard]] ConsensusOutcome run_many_crashes_consensus(
    const ConsensusParams& params, std::span<const int> inputs,
    std::unique_ptr<sim::FaultInjector> adversary);

/// Runs AEA alone and reports: decided-or-crashed count (the 3/5 n bound of
/// Theorem 5), agreement and validity over the decided nodes.
struct AeaOutcome {
  sim::Report report;
  std::int64_t decided_or_crashed = 0;
  bool agreement = false;
  bool validity = false;
};
[[nodiscard]] AeaOutcome run_aea(const ConsensusParams& params, std::span<const int> inputs,
                                 std::unique_ptr<sim::FaultInjector> adversary);

/// Runs SCV alone from an initialization mask and checks every non-faulty
/// node decided on the common value.
struct ScvOutcome {
  sim::Report report;
  bool all_decided_common = false;
};
[[nodiscard]] ScvOutcome run_scv(const ConsensusParams& params,
                                 std::span<const std::optional<std::uint64_t>> initials,
                                 std::unique_ptr<sim::FaultInjector> adversary);

}  // namespace lft::core
