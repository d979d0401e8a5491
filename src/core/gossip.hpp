// Gossip (Figure 5, Theorem 9): little nodes absorb all rumors in Part 1
// (inquiry/response phases over growing graphs G_i, interleaved with local
// probing on G that merges extant sets), then propagate completed sets to
// everyone in Part 2 using shared completion sets to avoid duplicate
// coverage. Extant sets are *certified* when their owner survived the final
// Part 1 probing; nodes lacking a certified set pull one in a 2-round
// epilogue (DESIGN.md substitution 5).
#pragma once

#include <map>
#include <memory>
#include <optional>
#include <vector>

#include "core/extant.hpp"
#include "core/growset.hpp"
#include "core/io.hpp"
#include "core/local_probe.hpp"
#include "core/params.hpp"
#include "core/run_options.hpp"
#include "graph/graph.hpp"
#include "sim/adversary.hpp"

namespace lft::core {

struct GossipParams {
  NodeId n = 0;
  std::int64_t t = 0;
  NodeId little_count = 0;
  int probe_degree = 16;
  int probe_delta = 4;
  int probe_gamma = 0;  // 2 + lg(little_count)
  int phases = 0;       // ceil(lg n)
  int inquiry_base = 10;
  bool guarantee_termination = true;
  std::uint64_t rumor_bits = 64;
  std::uint64_t overlay_tag = 0;

  [[nodiscard]] static GossipParams practical(NodeId n, std::int64_t t);
};

/// Immutable shared topology/config for a gossip run.
struct GossipConfig {
  GossipParams params;
  std::shared_ptr<const graph::Graph> little_g;
  std::vector<std::shared_ptr<const graph::Graph>> inquiry;  // per phase, on n vertices

  [[nodiscard]] static std::shared_ptr<const GossipConfig> build(const GossipParams& params);
};

struct GossipState {
  explicit GossipState(NodeId n, NodeId self, std::uint64_t rumor)
      : extant(n), completion(static_cast<std::size_t>(n)) {
    extant.add(self, rumor);
    completion.add(static_cast<std::size_t>(self));
  }
  ExtantSet extant;
  GrowingBitset completion;
  bool survived_last = false;  // survived the most recent probing instance
  bool certified = false;      // survived the final Part 1 probing
  bool has_certified = false;  // holds or received a certified set
  bool decided = false;
};

/// Part 1 of Figure 5 (build extant sets). Phase block layout:
/// round 0 inquiries, round 1 pair replies, rounds 2..gamma+2 local probing.
class GossipBuildStage final : public Stage {
 public:
  GossipBuildStage(std::shared_ptr<const GossipConfig> cfg, NodeId self, GossipState& state);
  [[nodiscard]] Round duration() const override;
  void on_round(Round r, std::span<const sim::Message> inbox, ProtocolIo& io) override;
  [[nodiscard]] LinkBudget link_budget(Round r) const override;
  [[nodiscard]] LinkPlan link_plan(Round r) const override;

 private:
  [[nodiscard]] bool is_little() const noexcept;
  [[nodiscard]] Round block() const noexcept;
  std::shared_ptr<const GossipConfig> cfg_;
  NodeId self_;
  GossipState* state_;
  std::optional<LocalProbe> probe_;
  std::map<NodeId, std::size_t> watermark_;  // per-G-neighbor extant log index
  std::vector<std::byte> scratch_;           // payload build buffer, reused per send
};

/// Part 2 of Figure 5 (spread certified sets + completion bookkeeping).
class GossipShareStage final : public Stage {
 public:
  GossipShareStage(std::shared_ptr<const GossipConfig> cfg, NodeId self, GossipState& state);
  [[nodiscard]] Round duration() const override;
  void on_round(Round r, std::span<const sim::Message> inbox, ProtocolIo& io) override;
  [[nodiscard]] LinkBudget link_budget(Round r) const override;
  [[nodiscard]] LinkPlan link_plan(Round r) const override;

 private:
  [[nodiscard]] bool is_little() const noexcept;
  [[nodiscard]] Round block() const noexcept;
  std::shared_ptr<const GossipConfig> cfg_;
  NodeId self_;
  GossipState* state_;
  std::optional<LocalProbe> probe_;
  std::map<NodeId, std::size_t> watermark_;  // per-G-neighbor completion log index
  std::vector<std::byte> scratch_;           // payload build buffer, reused per send
};

/// Epilogue: nodes without a certified set pull one from the little group,
/// then everyone decides. The pull is optional twice over: checkpointing
/// embeds gossip without deciding (decide_at_end = false), and the
/// single-port adaptation disables the pull (enable_pull = false) because
/// its little-node in-degree is unbounded — matching the multi-port
/// configuration where the pull is a metered, normally-dormant safety net.
class GossipFinishStage final : public Stage {
 public:
  GossipFinishStage(std::shared_ptr<const GossipConfig> cfg, NodeId self, GossipState& state,
                    bool decide_at_end, bool enable_pull = true);
  [[nodiscard]] Round duration() const override { return enable_pull_ ? 3 : 1; }
  void on_round(Round r, std::span<const sim::Message> inbox, ProtocolIo& io) override;

 private:
  std::shared_ptr<const GossipConfig> cfg_;
  NodeId self_;
  GossipState* state_;
  bool decide_at_end_;
  bool enable_pull_;
};

/// Full gossip protocol at one node.
class GossipProcess final : public sim::Process {
 public:
  GossipProcess(std::shared_ptr<const GossipConfig> cfg, NodeId self, std::uint64_t rumor);
  void on_round(sim::Context& ctx, const sim::Inbox& inbox) override;
  [[nodiscard]] const GossipState& state() const noexcept { return state_; }
  [[nodiscard]] Round duration() const { return driver_.total_duration(); }

 private:
  GossipState state_;
  std::vector<std::unique_ptr<Stage>> stages_;
  StageDriver driver_;
};

/// Runs gossip and checks the problem's conditions:
///  (1) nodes that crashed before sending anything appear in no decided set,
///  (2) nodes that halted operational appear in every decided set,
///  plus termination (every non-faulty node decided).
struct GossipOutcome {
  sim::Report report;
  bool termination = false;
  bool condition1 = false;
  bool condition2 = false;
  bool rumors_intact = false;  // every decided pair carries the true rumor

  [[nodiscard]] bool all_good() const {
    return termination && condition1 && condition2 && rumors_intact;
  }
};

/// Execution knobs (parallel stepper, scratch recycling, trace recording)
/// travel in core::RunOptions; none of them changes any Report bit.
[[nodiscard]] GossipOutcome run_gossip(const GossipParams& params,
                                       std::span<const std::uint64_t> rumors,
                                       std::unique_ptr<sim::FaultInjector> adversary,
                                       const RunOptions& options = {});

}  // namespace lft::core
