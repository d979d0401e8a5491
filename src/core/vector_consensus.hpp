// Vectorized Few-Crashes-Consensus: n concurrent binary consensus instances
// executed with combined messages, exactly as Checkpointing (Figure 6)
// prescribes ("a node transmits messages over a link simultaneously for each
// instance of consensus, and these messages are combined into one big
// message"). The candidate is a bitset; flooding sends per-link deltas of
// newly raised instances; probing piggybacks deltas on heartbeats; value
// spreading and inquiries carry the full vector.
#pragma once

#include <functional>
#include <memory>
#include <optional>
#include <vector>

#include "core/growset.hpp"
#include "core/io.hpp"
#include "core/local_probe.hpp"
#include "core/params.hpp"
#include "graph/graph.hpp"
#include "graph/phase_graph.hpp"

namespace lft::core {

struct VectorState {
  explicit VectorState(NodeId n) : candidate(static_cast<std::size_t>(n)) {}
  GrowingBitset candidate;
  std::size_t broadcast_mark = 0;  // candidate log watermark for flooding
  bool survived_probe = false;
  bool has_value = false;
  std::optional<DynamicBitset> value;
  bool decided = false;
};

/// Shared topology for a vectorized consensus run (mirrors Figure 3's parts).
/// `instances` is the number of concurrent binary instances; checkpointing
/// uses n (one per node name), the majority/counting extension uses 2n.
struct VectorConsensusConfig {
  ConsensusParams params;
  NodeId instances = 0;
  std::shared_ptr<const graph::Graph> little_g;
  std::shared_ptr<const graph::Graph> spread_h;
  std::vector<graph::PhaseGraph> inquiry;

  [[nodiscard]] static std::shared_ptr<const VectorConsensusConfig> build(
      const ConsensusParams& params, NodeId instances = 0);
};

/// Optional initializer evaluated at the stage's first round (used by
/// checkpointing to seed the candidate from the gossip extant set).
using VectorInit = std::function<DynamicBitset()>;

/// Part 1: flooding of raised instances among little nodes.
class VecFloodStage final : public Stage {
 public:
  VecFloodStage(std::shared_ptr<const VectorConsensusConfig> cfg, NodeId self,
                VectorState& state, VectorInit init);
  [[nodiscard]] Round duration() const override;
  void on_round(Round r, std::span<const sim::Message> inbox, ProtocolIo& io) override;

 private:
  std::shared_ptr<const VectorConsensusConfig> cfg_;
  NodeId self_;
  VectorState* state_;
  VectorInit init_;
  std::vector<std::byte> scratch_;  // payload build buffer, reused per send
};

/// Part 2: local probing; survivors decide on their candidate vector.
class VecProbeStage final : public Stage {
 public:
  VecProbeStage(std::shared_ptr<const VectorConsensusConfig> cfg, NodeId self,
                VectorState& state);
  [[nodiscard]] Round duration() const override;
  void on_round(Round r, std::span<const sim::Message> inbox, ProtocolIo& io) override;

 private:
  std::shared_ptr<const VectorConsensusConfig> cfg_;
  NodeId self_;
  VectorState* state_;
  LocalProbe probe_;
  std::vector<std::byte> scratch_;  // payload build buffer, reused per send
};

/// Part 3: little deciders notify related nodes with the full vector.
class VecNotifyStage final : public Stage {
 public:
  VecNotifyStage(std::shared_ptr<const VectorConsensusConfig> cfg, NodeId self,
                 VectorState& state);
  [[nodiscard]] Round duration() const override { return 2; }
  void on_round(Round r, std::span<const sim::Message> inbox, ProtocolIo& io) override;

 private:
  std::shared_ptr<const VectorConsensusConfig> cfg_;
  NodeId self_;
  VectorState* state_;
  std::vector<std::byte> scratch_;  // payload build buffer, reused per send
};

/// SCV Part 1 analogue: holders flood the decided vector over H once.
class VecSpreadStage final : public Stage {
 public:
  VecSpreadStage(std::shared_ptr<const VectorConsensusConfig> cfg, NodeId self,
                 VectorState& state);
  [[nodiscard]] Round duration() const override;
  void on_round(Round r, std::span<const sim::Message> inbox, ProtocolIo& io) override;

 private:
  std::shared_ptr<const VectorConsensusConfig> cfg_;
  NodeId self_;
  VectorState* state_;
  bool forwarded_ = false;
  std::vector<std::byte> scratch_;  // payload build buffer, reused per send
};

/// SCV Part 2 analogue: inquiry phases (or the all-littles pull when
/// t^2 <= n) plus the certified-pull epilogue; replies carry the vector.
class VecInquiryStage final : public Stage {
 public:
  /// mode 0: inquiry phases over cfg->inquiry; mode 1: pull from the little
  /// group (paper branch); mode 2: fallback pull (counts activations).
  VecInquiryStage(std::shared_ptr<const VectorConsensusConfig> cfg, NodeId self,
                  VectorState& state, int mode);
  [[nodiscard]] Round duration() const override;
  void on_round(Round r, std::span<const sim::Message> inbox, ProtocolIo& io) override;

 private:
  void adopt(const sim::Message& m, ProtocolIo& io);
  std::shared_ptr<const VectorConsensusConfig> cfg_;
  NodeId self_;
  VectorState* state_;
  int mode_;
  std::vector<std::byte> scratch_;  // payload build buffer, reused per send
};

/// Appends the full vectorized-consensus pipeline to `stages`.
void append_vector_consensus_stages(std::vector<std::unique_ptr<Stage>>& stages,
                                    std::shared_ptr<const VectorConsensusConfig> cfg,
                                    NodeId self, VectorState& state, VectorInit init);

}  // namespace lft::core
