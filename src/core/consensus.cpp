#include "core/consensus.hpp"

#include <algorithm>
#include <span>

#include "common/assert.hpp"
#include "core/stages.hpp"
#include "graph/overlay.hpp"

namespace lft::core {

namespace {

// Materialized (spectrally certified) inquiry overlays are capped at this
// many CSR entries; beyond it a phase switches to an implicit representation
// whose construction and storage are O(degree) instead of O(n * degree).
// Degrees never fall from phase to phase, so the materialized phases are a
// prefix of the family.
constexpr std::int64_t kMaterializedEntryBudget = std::int64_t{1} << 22;

int inquiry_degree(const ConsensusParams& p, int phase) {
  const std::int64_t wanted = static_cast<std::int64_t>(p.inquiry_base) << (phase + 1);
  // Not std::clamp: its upper bound is 0 when n = 1 (the complete graph).
  const std::int64_t cap = std::min<std::int64_t>(p.inquiry_cap, p.n - 1);
  return static_cast<int>(std::min(std::max<std::int64_t>(wanted, 1), cap));
}

bool materialized(const ConsensusParams& p, int degree) {
  return static_cast<std::int64_t>(p.n) * degree <= kMaterializedEntryBudget;
}

void add_aea_stages(StageProcess& proc, const ConsensusParams& p, NodeId self,
                    const std::shared_ptr<const graph::Graph>& g) {
  proc.add_stage(std::make_unique<FloodRumorStage>(self, p.little_count, g,
                                                   p.flood_rounds_little, proc.state()));
  proc.add_stage(std::make_unique<ProbeStage>(self, p.little_count, g, p.probe_gamma_little,
                                              p.probe_delta_little, proc.state(),
                                              /*decide_on_survive=*/true));
  proc.add_stage(std::make_unique<NotifyRelatedStage>(self, p.n, p.little_count, proc.state()));
}

/// SCV's overlays: H, plus the inquiry family unless little-pull replaces it.
OverlayRequest scv_request(const ConsensusParams& p) {
  return {.spread_h = true,
          .inquiry_phases = p.use_little_pull ? 0 : p.scv_phases,
          .inquiry_tag = p.overlay_tag ^ kOverlayInquiryBase};
}

void add_scv_stages(StageProcess& proc, const ConsensusParams& p, NodeId self,
                    ConsensusOverlays& overlays) {
  proc.add_stage(std::make_unique<SpreadFloodStage>(self, std::move(overlays.spread_h),
                                                    p.spread_rounds, proc.state()));
  if (p.use_little_pull) {
    proc.add_stage(std::make_unique<PullStage>(self, p.little_count, proc.state(),
                                               /*fallback_metric=*/false));
  } else {
    proc.add_stage(
        std::make_unique<InquiryPhasesStage>(self, std::move(overlays.inquiry), proc.state()));
    if (p.guarantee_termination) {
      proc.add_stage(std::make_unique<PullStage>(self, p.little_count, proc.state(),
                                                 /*fallback_metric=*/true));
    }
  }
}

}  // namespace

graph::OverlaySpec little_overlay_spec(const ConsensusParams& p) {
  return {p.little_count, std::max(1, std::min<int>(p.probe_degree_little, p.little_count - 1)),
          p.overlay_tag ^ kOverlayLittleG};
}

ConsensusOverlays consensus_overlays(const ConsensusParams& p, const OverlayRequest& request) {
  std::vector<graph::OverlaySpec> specs;
  specs.reserve(3 + static_cast<std::size_t>(std::max(0, request.inquiry_phases)));
  if (request.little_g) specs.push_back(little_overlay_spec(p));
  if (request.spread_h) {
    specs.push_back({p.n, std::max(1, std::min<int>(p.spread_degree, p.n - 1)),
                     p.overlay_tag ^ kOverlaySpreadH});
  }
  if (request.all_g) {
    specs.push_back({p.n, std::max(1, std::min<int>(p.probe_degree_all, p.n - 1)),
                     p.overlay_tag ^ kOverlayAllG});
  }
  const std::size_t first_inquiry = specs.size();
  std::size_t first_implicit = specs.size();
  for (int i = 0; i < request.inquiry_phases; ++i) {
    const int degree = inquiry_degree(p, i);
    specs.push_back({p.n, degree, request.inquiry_tag + static_cast<std::uint64_t>(i)});
    if (materialized(p, degree)) first_implicit = specs.size();
  }
  const std::span<const graph::OverlaySpec> all(specs);
  auto graphs = graph::shared_overlays(all.first(first_implicit));

  ConsensusOverlays out;
  std::size_t next = 0;
  if (request.little_g) out.little_g = std::move(graphs[next++]);
  if (request.spread_h) out.spread_h = std::move(graphs[next++]);
  if (request.all_g) out.all_g = std::move(graphs[next++]);
  if (request.inquiry_phases == 0) return out;
  out.inquiry.reserve(static_cast<std::size_t>(request.inquiry_phases));
  for (auto g = graphs.begin() + static_cast<std::ptrdiff_t>(first_inquiry); g != graphs.end();
       ++g) {
    out.inquiry.emplace_back(std::move(*g));
  }
  if (first_implicit < specs.size()) {
    graph::append_implicit_overlays(all.subspan(first_implicit), out.inquiry);
  }
  return out;
}

std::unique_ptr<StageProcess> make_aea_process(const ConsensusParams& p, NodeId self,
                                               int input) {
  LFT_ASSERT(input == 0 || input == 1);
  auto proc = std::make_unique<StageProcess>(self);
  proc->state().candidate = input;
  proc->state().is_little = self < p.little_count;
  add_aea_stages(*proc, p, self, consensus_overlays(p, {.little_g = true}).little_g);
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
  auto overlays = consensus_overlays(p, scv_request(p));
  add_scv_stages(*proc, p, self, overlays);
  return proc;
}

std::unique_ptr<StageProcess> make_few_crashes_process(const ConsensusParams& p, NodeId self,
                                                       int input) {
  LFT_ASSERT(input == 0 || input == 1);
  LFT_ASSERT_MSG(5 * p.t < p.n, "Few-Crashes-Consensus requires t < n/5");
  auto proc = std::make_unique<StageProcess>(self);
  proc->state().candidate = input;
  proc->state().is_little = self < p.little_count;
  OverlayRequest request = scv_request(p);
  request.little_g = true;
  auto overlays = consensus_overlays(p, request);
  add_aea_stages(*proc, p, self, overlays.little_g);
  add_scv_stages(*proc, p, self, overlays);
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
  auto overlays =
      consensus_overlays(p, {.all_g = true,
                             .inquiry_phases = p.many_phases,
                             .inquiry_tag = p.overlay_tag ^ (kOverlayInquiryBase + 500)});
  const auto& g = overlays.all_g;
  proc->add_stage(std::make_unique<FloodRumorStage>(self, p.n, g, p.flood_rounds_all,
                                                    proc->state()));
  proc->add_stage(std::make_unique<ProbeStage>(self, p.n, g, p.probe_gamma_all,
                                               p.probe_delta_all, proc->state(),
                                               /*decide_on_survive=*/true));
  proc->add_stage(
      std::make_unique<InquiryPhasesStage>(self, std::move(overlays.inquiry), proc->state()));
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
