// AB-Consensus (Figure 7, Theorem 11): consensus under authenticated
// Byzantine faults, t < n/2 (with the little group of min(5t, n) nodes).
//   Part 1: 5t parallel Dolev-Strong broadcasts among little nodes with
//           combined messages, then a certification exchange in which every
//           little node signs its ACS digest; >= little-t matching
//           signatures form the certificate (the paper's ">= 4t valid
//           little signatures").
//   Part 2: little nodes send the certified set to their related nodes.
//   Part 3: slow propagation over the constant-degree graph H.
//   Part 4: authenticated inquiries to the little group.
// Decision: the maximum value in the certified set.
#pragma once

#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "byzantine/acs.hpp"
#include "byzantine/dolev_strong.hpp"
#include "core/io.hpp"
#include "core/run_options.hpp"
#include "graph/graph.hpp"
#include "sim/engine.hpp"

namespace lft::byzantine {

struct AbParams {
  NodeId n = 0;
  std::int64_t t = 0;
  NodeId little_count = 0;    // min(5t, n), at least 1
  NodeId cert_threshold = 0;  // little_count - t
  int spread_degree = 12;
  Round spread_rounds = 0;
  std::uint64_t registry_seed = 0x42595a414e54ULL;  // "BYZANT"
  std::uint64_t overlay_tag = 0xAB;

  [[nodiscard]] static AbParams practical(NodeId n, std::int64_t t);
};

struct AbConfig {
  AbParams params;
  std::shared_ptr<const crypto::KeyRegistry> registry;
  std::shared_ptr<const graph::Graph> spread_h;

  [[nodiscard]] static std::shared_ptr<const AbConfig> build(const AbParams& params);
  [[nodiscard]] Round duration() const;
};

/// Honest protocol logic at one node; its round logic speaks to the engine
/// through core::ProtocolIo.
class AbConsensusProcess final : public sim::Process {
 public:
  AbConsensusProcess(std::shared_ptr<const AbConfig> cfg, NodeId self, std::uint64_t input);
  void on_round(sim::Context& ctx, const sim::Inbox& inbox) override;

  [[nodiscard]] bool has_certified() const noexcept { return certified_.has_value(); }
  [[nodiscard]] const CertifiedSet& certified() const { return *certified_; }

 private:
  [[nodiscard]] bool is_little() const noexcept;
  void adopt(const sim::Message& m, core::ProtocolIo& io, bool forward);
  void forward_certified(core::ProtocolIo& io);

  std::shared_ptr<const AbConfig> cfg_;
  NodeId self_;
  std::uint64_t input_;
  crypto::Signer signer_;
  DsNode ds_;
  std::optional<ValueSet> acs_;           // little: own DS outcome
  std::optional<CertifiedSet> certified_;  // adopted certified set
  std::vector<crypto::Signature> cert_sigs_;
  bool forwarded_ = false;
};

/// A Byzantine behavior factory: kind in {"silent", "equivocate", "flood"}.
[[nodiscard]] std::unique_ptr<sim::Process> make_byzantine_process(
    const std::string& kind, std::shared_ptr<const AbConfig> cfg, NodeId self,
    std::uint64_t seed);

struct AbOutcome {
  sim::Report report;
  bool termination = false;  // every honest node decided
  bool agreement = false;    // all honest decisions equal
  std::optional<std::uint64_t> decision;
  /// With no Byzantine little nodes the decision must equal the maximum
  /// little input (the Figure 7 rule); meaningless otherwise.
  bool max_rule_holds = true;
};

/// Runs AB-Consensus: inputs[v] is node v's binary input; byzantine maps
/// node id -> behavior kind for the faulty nodes (size <= t). Implemented as
/// a fault plan whose takeovers fire at round 0.
[[nodiscard]] AbOutcome run_ab_consensus(
    const AbParams& params, std::span<const std::uint64_t> inputs,
    const std::vector<std::pair<NodeId, std::string>>& byzantine);

/// Runs AB-Consensus against a declarative fault plan. Takeover kinds in the
/// plan are resolved through make_byzantine_process ("silent", "equivocate",
/// "flood"); crash/omission/partition/link events apply as scheduled, each
/// fault class budgeted at t. Execution knobs travel in core::RunOptions.
[[nodiscard]] AbOutcome run_ab_consensus_plan(const AbParams& params,
                                              std::span<const std::uint64_t> inputs,
                                              sim::FaultPlan plan,
                                              const core::RunOptions& options = {});

}  // namespace lft::byzantine
