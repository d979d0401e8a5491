#include "core/consensus.hpp"

#include <algorithm>

#include "common/assert.hpp"
#include "common/rng.hpp"
#include "core/stages.hpp"
#include "graph/overlay.hpp"

namespace lft::core {

namespace {

std::shared_ptr<const graph::Graph> little_overlay(const ConsensusParams& p) {
  const int degree = std::min<int>(p.probe_degree_little, std::max<int>(1, p.little_count - 1));
  return graph::shared_overlay(p.little_count, std::max(1, degree),
                               p.overlay_tag ^ kOverlayLittleG);
}

std::shared_ptr<const graph::Graph> all_overlay(const ConsensusParams& p) {
  const int degree = std::min<int>(p.probe_degree_all, std::max<int>(1, p.n - 1));
  return graph::shared_overlay(p.n, std::max(1, degree), p.overlay_tag ^ kOverlayAllG);
}

std::shared_ptr<const graph::Graph> spread_overlay(const ConsensusParams& p) {
  const int degree = std::min<int>(p.spread_degree, std::max<int>(1, p.n - 1));
  return graph::shared_overlay(p.n, std::max(1, degree), p.overlay_tag ^ kOverlaySpreadH);
}

void add_aea_stages(StageProcess& proc, const ConsensusParams& p, NodeId self) {
  auto g = little_overlay(p);
  proc.add_stage(std::make_unique<FloodRumorStage>(self, p.little_count, g,
                                                   p.flood_rounds_little, proc.state()));
  proc.add_stage(std::make_unique<ProbeStage>(self, p.little_count, g, p.probe_gamma_little,
                                              p.probe_delta_little, proc.state(),
                                              /*decide_on_survive=*/true));
  proc.add_stage(std::make_unique<NotifyRelatedStage>(self, p.n, p.little_count, proc.state()));
}

void add_scv_stages(StageProcess& proc, const ConsensusParams& p, NodeId self) {
  proc.add_stage(std::make_unique<SpreadFloodStage>(self, spread_overlay(p), p.spread_rounds,
                                                    proc.state()));
  if (p.use_little_pull) {
    proc.add_stage(std::make_unique<PullStage>(self, p.little_count, proc.state(),
                                               /*fallback_metric=*/false));
  } else {
    proc.add_stage(std::make_unique<InquiryPhasesStage>(
        self, inquiry_graphs(p, p.scv_phases, p.overlay_tag ^ kOverlayInquiryBase),
        proc.state()));
    if (p.guarantee_termination) {
      proc.add_stage(std::make_unique<PullStage>(self, p.little_count, proc.state(),
                                                 /*fallback_metric=*/true));
    }
  }
}

}  // namespace

std::vector<graph::PhaseGraph> inquiry_graphs(const ConsensusParams& p, int phases,
                                              std::uint64_t tag_base) {
  LFT_ASSERT(phases >= 1);
  // Materialized (spectrally certified) overlays are capped at this many CSR
  // entries; beyond it a phase switches to an implicit representation whose
  // construction and storage are O(degree) instead of O(n * degree).
  constexpr std::int64_t kMaterializedEntryBudget = std::int64_t{1} << 22;
  std::vector<graph::PhaseGraph> graphs;
  graphs.reserve(static_cast<std::size_t>(phases));
  for (int i = 0; i < phases; ++i) {
    const std::int64_t wanted = static_cast<std::int64_t>(p.inquiry_base) << (i + 1);
    const int degree = static_cast<int>(std::clamp<std::int64_t>(
        wanted, 1, std::min<std::int64_t>(p.inquiry_cap, p.n - 1)));
    const std::uint64_t tag = tag_base + static_cast<std::uint64_t>(i);
    if (static_cast<std::int64_t>(p.n) * degree <= kMaterializedEntryBudget) {
      graphs.push_back(graph::shared_overlay(p.n, std::max(1, degree), tag));
    } else if (degree >= p.n - 1) {
      graphs.push_back(graph::PhaseGraph::complete(p.n));
    } else {
      graphs.push_back(graph::PhaseGraph::circulant(
          p.n, degree, make_seed(0x4c4654494e515547ULL /* "LFTINQUG" */,
                                 static_cast<std::uint64_t>(p.n),
                                 static_cast<std::uint64_t>(degree), tag)));
    }
  }
  return graphs;
}

std::unique_ptr<StageProcess> make_aea_process(const ConsensusParams& p, NodeId self,
                                               int input) {
  LFT_ASSERT(input == 0 || input == 1);
  auto proc = std::make_unique<StageProcess>(self);
  proc->state().candidate = input;
  proc->state().is_little = self < p.little_count;
  add_aea_stages(*proc, p, self);
  return proc;
}

std::unique_ptr<StageProcess> make_scv_process(const ConsensusParams& p, NodeId self,
                                               std::optional<std::uint64_t> initial) {
  auto proc = std::make_unique<StageProcess>(self);
  if (initial.has_value()) {
    proc->state().has_value = true;
    proc->state().value = *initial;
    proc->state().candidate = static_cast<int>(*initial & 1);
  }
  proc->state().is_little = self < p.little_count;
  add_scv_stages(*proc, p, self);
  return proc;
}

std::unique_ptr<StageProcess> make_few_crashes_process(const ConsensusParams& p, NodeId self,
                                                       int input) {
  LFT_ASSERT(input == 0 || input == 1);
  LFT_ASSERT_MSG(5 * p.t < p.n, "Few-Crashes-Consensus requires t < n/5");
  auto proc = std::make_unique<StageProcess>(self);
  proc->state().candidate = input;
  proc->state().is_little = self < p.little_count;
  add_aea_stages(*proc, p, self);
  add_scv_stages(*proc, p, self);
  return proc;
}

bool reset_few_crashes_process(StageProcess& proc, const ConsensusParams& p, int input) {
  LFT_ASSERT(input == 0 || input == 1);
  BinaryState initial{};
  initial.candidate = input;
  initial.is_little = proc.self() < p.little_count;
  return proc.reset(initial);
}

std::unique_ptr<StageProcess> make_many_crashes_process(const ConsensusParams& p, NodeId self,
                                                        int input) {
  LFT_ASSERT(input == 0 || input == 1);
  auto proc = std::make_unique<StageProcess>(self);
  proc->state().candidate = input;
  auto g = all_overlay(p);
  proc->add_stage(std::make_unique<FloodRumorStage>(self, p.n, g, p.flood_rounds_all,
                                                    proc->state()));
  proc->add_stage(std::make_unique<ProbeStage>(self, p.n, g, p.probe_gamma_all,
                                               p.probe_delta_all, proc->state(),
                                               /*decide_on_survive=*/true));
  proc->add_stage(std::make_unique<InquiryPhasesStage>(
      self, inquiry_graphs(p, p.many_phases, p.overlay_tag ^ (kOverlayInquiryBase + 500)),
      proc->state()));
  if (p.guarantee_termination) {
    proc->add_stage(std::make_unique<PullStage>(self, p.n, proc->state(),
                                                /*fallback_metric=*/true));
  }
  return proc;
}

sim::Report run_system(NodeId n, std::int64_t crash_budget, const ProcessFactory& factory,
                       std::unique_ptr<sim::FaultInjector> adversary,
                       const RunOptions& options) {
  sim::EngineConfig config;
  config.crash_budget = crash_budget;
  // Each fault class gets the same budget t: omission faults are node faults
  // in the same adversary model (Dwork-Halpern-Waarts).
  config.omission_budget = crash_budget;
  config.max_rounds = options.max_rounds;
  config.threads = options.threads;
  config.scratch = options.scratch;
  config.trace = options.trace;
  config.telemetry = options.telemetry;
  sim::Engine engine(n, config);
  for (NodeId v = 0; v < n; ++v) engine.set_process(v, factory(v));
  if (adversary != nullptr) engine.add_fault_injector(std::move(adversary));
  return engine.run();
}

ConsensusOutcome evaluate_consensus(sim::Report report, std::span<const int> inputs) {
  ConsensusOutcome out;
  out.decision = report.agreed_value();
  out.agreement = true;
  std::optional<std::uint64_t> seen;
  bool everyone_decided = true;
  for (std::size_t v = 0; v < report.nodes.size(); ++v) {
    const auto& s = report.nodes[v];
    if (s.crashed || s.byzantine || s.omission) continue;
    if (!s.decided) {
      everyone_decided = false;
      continue;
    }
    if (seen && *seen != s.decision) out.agreement = false;
    seen = s.decision;
  }
  out.termination = report.completed && everyone_decided;
  if (seen) {
    out.validity = false;
    for (std::size_t v = 0; v < inputs.size(); ++v) {
      if (static_cast<std::uint64_t>(inputs[v]) == *seen) {
        out.validity = true;
        break;
      }
    }
  } else {
    out.validity = false;
  }
  out.report = std::move(report);
  return out;
}

ConsensusOutcome run_few_crashes_consensus(const ConsensusParams& params,
                                           std::span<const int> inputs,
                                           std::unique_ptr<sim::FaultInjector> adversary) {
  LFT_ASSERT(static_cast<NodeId>(inputs.size()) == params.n);
  auto report = run_system(
      params.n, params.t,
      [&](NodeId v) { return make_few_crashes_process(params, v, inputs[static_cast<std::size_t>(v)]); },
      std::move(adversary));
  return evaluate_consensus(std::move(report), inputs);
}

ConsensusOutcome run_many_crashes_consensus(const ConsensusParams& params,
                                            std::span<const int> inputs,
                                            std::unique_ptr<sim::FaultInjector> adversary) {
  LFT_ASSERT(static_cast<NodeId>(inputs.size()) == params.n);
  auto report = run_system(
      params.n, params.t,
      [&](NodeId v) { return make_many_crashes_process(params, v, inputs[static_cast<std::size_t>(v)]); },
      std::move(adversary));
  return evaluate_consensus(std::move(report), inputs);
}

AeaOutcome run_aea(const ConsensusParams& params, std::span<const int> inputs,
                   std::unique_ptr<sim::FaultInjector> adversary) {
  LFT_ASSERT(static_cast<NodeId>(inputs.size()) == params.n);
  AeaOutcome out;
  out.report = run_system(
      params.n, params.t,
      [&](NodeId v) { return make_aea_process(params, v, inputs[static_cast<std::size_t>(v)]); },
      std::move(adversary));
  out.agreement = true;
  std::optional<std::uint64_t> seen;
  for (const auto& s : out.report.nodes) {
    if (s.crashed || s.decided) ++out.decided_or_crashed;
    if (s.crashed || !s.decided) continue;
    if (seen && *seen != s.decision) out.agreement = false;
    seen = s.decision;
  }
  out.validity = !seen.has_value();
  if (seen) {
    for (std::size_t v = 0; v < inputs.size(); ++v) {
      if (static_cast<std::uint64_t>(inputs[v]) == *seen) {
        out.validity = true;
        break;
      }
    }
  }
  return out;
}

ScvOutcome run_scv(const ConsensusParams& params,
                   std::span<const std::optional<std::uint64_t>> initials,
                   std::unique_ptr<sim::FaultInjector> adversary) {
  LFT_ASSERT(static_cast<NodeId>(initials.size()) == params.n);
  std::optional<std::uint64_t> common;
  for (const auto& i : initials) {
    if (i) {
      LFT_ASSERT_MSG(!common || *common == *i, "SCV requires a single common value");
      common = i;
    }
  }
  ScvOutcome out;
  out.report = run_system(
      params.n, params.t,
      [&](NodeId v) { return make_scv_process(params, v, initials[static_cast<std::size_t>(v)]); },
      std::move(adversary));
  out.all_decided_common = out.report.completed;
  for (const auto& s : out.report.nodes) {
    if (s.crashed) continue;
    if (!s.decided || (common && s.decision != *common)) out.all_decided_common = false;
  }
  return out;
}

}  // namespace lft::core
