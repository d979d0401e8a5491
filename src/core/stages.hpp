// The paper's protocol parts as composable stages:
//   FloodRumorStage    — Part 1 of Figures 1 and 4 (flooding rumor 1)
//   ProbeStage         — Part 2 of Figures 1 and 4 (local probing + decide)
//   NotifyRelatedStage — Part 3 of Figure 1 (little -> related star)
//   SpreadFloodStage   — Part 1 of Figure 2 (flooding the common value on H)
//   InquiryPhasesStage — Part 2 of Figure 2 / Part 3 of Figure 4
//   PullStage          — the t^2 <= n all-littles inquiry of Figure 2, and
//                        the certified-pull epilogue (DESIGN.md subst. 4)
// and StageProcess, the multi-port process that holds them in place.
// Stages borrow their graphs (`const graph::Graph&`, a span of PhaseGraphs);
// whoever builds them keeps the graphs alive, which for the assemblies
// (AEA, SCV, Few-/Many-Crashes-Consensus, in consensus.hpp) is the
// execution's shared ConsensusConfig, held by every node's process.
#pragma once

#include <concepts>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>
#include <span>

#include "common/assert.hpp"
#include "core/io.hpp"
#include "core/local_probe.hpp"
#include "core/tags.hpp"
#include "graph/graph.hpp"
#include "graph/phase_graph.hpp"

namespace lft::core {

struct ConsensusConfig;

/// Overlay namespace tags (combined with ConsensusParams::overlay_tag).
enum OverlayTag : std::uint64_t {
  kOverlayLittleG = 101,
  kOverlayAllG = 102,
  kOverlaySpreadH = 103,
  kOverlayInquiryBase = 1000,  // + phase index
  kOverlayGossipBase = 3000,   // + phase index
};

/// Part 1 flooding: members (ids < member_count) flood rumor 1 over `g` for
/// `rounds` rounds; a member forwards the first time its candidate flips to 1.
class FloodRumorStage final : public Stage {
 public:
  FloodRumorStage(NodeId self, NodeId member_count, const graph::Graph& g, Round rounds,
                  BinaryState& state);

  [[nodiscard]] Round duration() const override { return rounds_; }
  void on_round(Round r, std::span<const sim::Message> inbox, ProtocolIo& io) override;
  [[nodiscard]] LinkBudget link_budget(Round r) const override;
  [[nodiscard]] LinkPlan link_plan(Round r) const override;
  /// Flooding acts only on receipt (message wake) or at round 0.
  [[nodiscard]] Round quiescent_until(Round /*r*/) const override { return duration(); }

 private:
  [[nodiscard]] bool is_member() const noexcept { return self_ < members_; }
  NodeId self_;
  NodeId members_;
  const graph::Graph& g_;
  Round rounds_;
  BinaryState* state_;
  bool sent_ = false;
};

/// Part 2 local probing among members over `g`; survivors optionally decide
/// on their candidate (Figures 1 and 4). Also applies the pseudocode's
/// stipulation (b): receiving rumor 1 lifts a 0 candidate.
class ProbeStage final : public Stage {
 public:
  ProbeStage(NodeId self, NodeId member_count, const graph::Graph& g, int gamma, int delta,
             BinaryState& state, bool decide_on_survive);

  [[nodiscard]] Round duration() const override { return probe_.duration(); }
  void on_round(Round r, std::span<const sim::Message> inbox, ProtocolIo& io) override;
  [[nodiscard]] LinkBudget link_budget(Round r) const override;
  [[nodiscard]] LinkPlan link_plan(Round r) const override;
  /// The probe automaton counts rounds, so members step every round;
  /// non-members are inert for the whole stage.
  [[nodiscard]] Round quiescent_until(Round r) const override {
    return is_member() ? r + 1 : duration();
  }

 private:
  [[nodiscard]] bool is_member() const noexcept { return self_ < members_; }
  NodeId self_;
  NodeId members_;
  const graph::Graph& g_;
  LocalProbe probe_;
  BinaryState* state_;
  bool decide_on_survive_;
};

/// Part 3 of Figure 1: little deciders notify their related nodes (same
/// residue mod little_count); recipients adopt and decide.
class NotifyRelatedStage final : public Stage {
 public:
  NotifyRelatedStage(NodeId self, NodeId n, NodeId little_count, BinaryState& state);

  [[nodiscard]] Round duration() const override { return 2; }
  void on_round(Round r, std::span<const sim::Message> inbox, ProtocolIo& io) override;
  [[nodiscard]] LinkBudget link_budget(Round r) const override;
  [[nodiscard]] LinkPlan link_plan(Round r) const override;
  /// Notifications go out at round 0 only; adoption rides the message wake.
  [[nodiscard]] Round quiescent_until(Round /*r*/) const override { return duration(); }

 private:
  NodeId self_;
  NodeId n_;
  NodeId little_;
  BinaryState* state_;
};

/// Part 1 of Figure 2: nodes holding the common value flood it over H; a
/// node adopts (and decides) on first receipt and forwards once. The final
/// round only adopts, keeping the stage self-contained.
class SpreadFloodStage final : public Stage {
 public:
  SpreadFloodStage(NodeId self, const graph::Graph& h, Round rounds, BinaryState& state,
                   std::uint64_t value_bits = 1);

  [[nodiscard]] Round duration() const override { return rounds_ + 1; }
  void on_round(Round r, std::span<const sim::Message> inbox, ProtocolIo& io) override;
  [[nodiscard]] LinkBudget link_budget(Round r) const override;
  [[nodiscard]] LinkPlan link_plan(Round r) const override;
  /// Spreads only on acquiring the value (message wake) or at round 0.
  [[nodiscard]] Round quiescent_until(Round /*r*/) const override { return duration(); }

 private:
  NodeId self_;
  const graph::Graph& h_;
  Round rounds_;
  BinaryState* state_;
  std::uint64_t value_bits_;
  bool forwarded_ = false;
};

/// Part 2 of Figure 2 / Part 3 of Figure 4: 2-round inquiry phases over a
/// family of graphs G_i of geometrically growing degree; undecided nodes
/// inquire, decided neighbors reply with the value.
class InquiryPhasesStage final : public Stage {
 public:
  InquiryPhasesStage(NodeId self, std::span<const graph::PhaseGraph> graphs,
                     BinaryState& state, std::uint64_t value_bits = 1);

  [[nodiscard]] Round duration() const override {
    return 2 * static_cast<Round>(graphs_.size()) + 1;
  }
  void on_round(Round r, std::span<const sim::Message> inbox, ProtocolIo& io) override;
  [[nodiscard]] LinkBudget link_budget(Round r) const override;
  [[nodiscard]] LinkPlan link_plan(Round r) const override;
  /// Undecided nodes inquire at every even round; decided nodes only answer
  /// inquiries, which arrive as message wakes.
  [[nodiscard]] Round quiescent_until(Round r) const override;

 private:
  NodeId self_;
  std::span<const graph::PhaseGraph> graphs_;
  BinaryState* state_;
  std::uint64_t value_bits_;
};

/// Direct pull from the first `target_count` nodes: the t^2 <= n branch of
/// Figure 2's Part 2 (targets = little nodes, fallback_metric = false) and
/// the certified-pull epilogue (fallback_metric = true, DESIGN.md subst. 4).
class PullStage final : public Stage {
 public:
  PullStage(NodeId self, NodeId target_count, BinaryState& state, bool fallback_metric,
            std::uint64_t value_bits = 1);

  [[nodiscard]] Round duration() const override { return 3; }
  void on_round(Round r, std::span<const sim::Message> inbox, ProtocolIo& io) override;
  /// Pulls go out at round 0; replies and adoption ride the message wakes.
  [[nodiscard]] Round quiescent_until(Round /*r*/) const override { return duration(); }

 private:
  NodeId self_;
  NodeId targets_;
  BinaryState* state_;
  bool fallback_metric_;
  std::uint64_t value_bits_;
};

/// Multi-port driver process for protocols whose shared state is a
/// BinaryState (AEA, SCV, both consensus algorithms). The whole node is one
/// heap block: its stages live in place inside the process, and their graphs
/// are borrowed from `config` (the execution's shared ConsensusConfig, which
/// the process keeps alive; null when the caller owns the graphs).
class StageProcess final : public sim::Process {
 public:
  explicit StageProcess(NodeId self, std::shared_ptr<const ConsensusConfig> config = nullptr)
      : self_(self), config_(std::move(config)) {}
  StageProcess(const StageProcess&) = delete;
  StageProcess& operator=(const StageProcess&) = delete;
  ~StageProcess() override {
    const auto stages = driver_.stages();
    for (auto it = stages.rbegin(); it != stages.rend(); ++it) std::destroy_at(*it);
  }

  /// Moves `stage` into the process and appends it to the timeline. Room is
  /// reserved for one stage of each of the six kinds.
  template <std::derived_from<Stage> S>
  S& add_stage(S stage) {
    static_assert(alignof(S) <= kStageAlign);
    const std::size_t offset = (used_ + alignof(S) - 1) / alignof(S) * alignof(S);
    LFT_ASSERT_MSG(offset + sizeof(S) <= kStageBytes, "StageProcess stage storage is full");
    S* placed = ::new (static_cast<void*>(storage_ + offset)) S(std::move(stage));
    used_ = static_cast<std::uint32_t>(offset + sizeof(S));
    driver_.add(*placed);
    return *placed;
  }

  [[nodiscard]] NodeId self() const noexcept { return self_; }
  [[nodiscard]] const std::shared_ptr<const ConsensusConfig>& config() const noexcept {
    return config_;
  }

  void on_round(sim::Context& ctx, const sim::Inbox& inbox) override;

  /// Moves the config into the node it rebuilds (consensus.hpp), sparing
  /// the pooled slots two atomic count updates per node.
  friend void rebuild_few_crashes_process(StageProcess& proc, int input);

  /// Post-run inspection.
  [[nodiscard]] const BinaryState& state() const noexcept { return state_; }
  [[nodiscard]] BinaryState& state() noexcept { return state_; }

 private:
  static constexpr std::size_t kStageAlign = alignof(Stage);
  static constexpr std::size_t kStageBytes =
      sizeof(FloodRumorStage) + sizeof(ProbeStage) + sizeof(NotifyRelatedStage) +
      sizeof(SpreadFloodStage) + sizeof(InquiryPhasesStage) + sizeof(PullStage);

  BinaryState state_;
  NodeId self_;
  std::uint32_t used_ = 0;
  std::shared_ptr<const ConsensusConfig> config_;
  StageDriver driver_;
  alignas(kStageAlign) std::byte storage_[kStageBytes];
};

}  // namespace lft::core
