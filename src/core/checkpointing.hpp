// Checkpointing (Figure 6, Theorem 10): gossip the node names with a dummy
// rumor, then run n concurrent instances of Few-Crashes-Consensus — one per
// node name, input 1 iff the name is present in the local extant set — with
// per-link combined messages (the vectorized consensus of
// vector_consensus.hpp). All non-faulty nodes decide the same extant set.
#pragma once

#include <memory>

#include "core/gossip.hpp"
#include "core/vector_consensus.hpp"

namespace lft::core {

struct CheckpointParams {
  GossipParams gossip;
  ConsensusParams consensus;

  [[nodiscard]] static CheckpointParams practical(NodeId n, std::int64_t t);
};

class CheckpointProcess final : public sim::Process {
 public:
  CheckpointProcess(std::shared_ptr<const GossipConfig> gossip_cfg,
                    std::shared_ptr<const VectorConsensusConfig> vec_cfg, NodeId self);

  void on_round(sim::Context& ctx, const sim::Inbox& inbox) override;

  [[nodiscard]] const VectorState& vector_state() const noexcept { return vector_state_; }
  [[nodiscard]] Round duration() const { return driver_.total_duration(); }

  /// The decided extant set (valid when vector_state().decided).
  [[nodiscard]] const DynamicBitset& decided_set() const;

 private:
  GossipState gossip_state_;
  VectorState vector_state_;
  StageDriver driver_;
};

/// Runs checkpointing and evaluates its three conditions:
///  (1) a node that crashed before sending anything is in no decided set,
///  (2) a node that halted operational is in every decided set,
///  (3) all decided extant sets are equal,
/// plus termination.
struct CheckpointOutcome {
  sim::Report report;
  bool termination = false;
  bool condition1 = false;
  bool condition2 = false;
  bool condition3 = false;

  [[nodiscard]] bool all_good() const {
    return termination && condition1 && condition2 && condition3;
  }
};

/// Execution knobs (parallel stepper, scratch recycling, trace recording)
/// travel in core::RunOptions; none of them changes any Report bit.
[[nodiscard]] CheckpointOutcome run_checkpointing(const CheckpointParams& params,
                                                  std::unique_ptr<sim::FaultInjector> adversary,
                                                  const RunOptions& options = {});

}  // namespace lft::core
