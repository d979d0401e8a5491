#include "core/gossip.hpp"

#include <algorithm>

#include "common/assert.hpp"
#include "common/math.hpp"
#include "core/stages.hpp"
#include "core/tags.hpp"
#include "graph/overlay.hpp"

namespace lft::core {

GossipParams GossipParams::practical(NodeId n, std::int64_t t) {
  LFT_ASSERT(n >= 1 && t >= 0 && 5 * t < n);
  GossipParams p;
  p.n = n;
  p.t = t;
  p.little_count =
      static_cast<NodeId>(std::clamp<std::int64_t>(5 * t, 1, static_cast<std::int64_t>(n)));
  p.probe_degree = 16;
  if (p.little_count - 1 <= p.probe_degree) {
    p.probe_delta = static_cast<int>(std::max<std::int64_t>(0, p.little_count - 1 - t));
  } else {
    p.probe_delta = p.probe_degree / 4;
  }
  p.probe_gamma = 2 + lg_rounds(static_cast<std::uint64_t>(p.little_count));
  p.phases = std::max(1, ceil_log2(static_cast<std::uint64_t>(n)));
  return p;
}

std::shared_ptr<const GossipConfig> GossipConfig::build(const GossipParams& params) {
  auto cfg = std::make_shared<GossipConfig>();
  cfg->params = params;
  // One overlay per phase, then little G: all in one batch.
  std::vector<graph::OverlaySpec> specs;
  specs.reserve(static_cast<std::size_t>(params.phases) + 1);
  for (int i = 0; i < params.phases; ++i) {
    const std::int64_t wanted = static_cast<std::int64_t>(params.inquiry_base) << (i + 1);
    // At least 1, at most n - 1 (the complete graph; degree 0 when n = 1).
    const std::int64_t degree =
        std::min<std::int64_t>(std::max<std::int64_t>(wanted, 1), params.n - 1);
    specs.push_back({params.n, static_cast<int>(degree),
                     params.overlay_tag ^ (kOverlayGossipBase + static_cast<std::uint64_t>(i))});
  }
  specs.push_back({params.little_count,
                   std::max(1, std::min<int>(params.probe_degree, params.little_count - 1)),
                   params.overlay_tag ^ kOverlayLittleG});
  cfg->inquiry = graph::shared_overlays(specs);
  cfg->little_g = std::move(cfg->inquiry.back());
  cfg->inquiry.pop_back();
  return cfg;
}

// ---- GossipBuildStage --------------------------------------------------------

GossipBuildStage::GossipBuildStage(std::shared_ptr<const GossipConfig> cfg, NodeId self,
                                   GossipState& state)
    : cfg_(std::move(cfg)), self_(self), state_(&state) {}

bool GossipBuildStage::is_little() const noexcept { return self_ < cfg_->params.little_count; }

Round GossipBuildStage::block() const noexcept {
  return 2 + (cfg_->params.probe_gamma + 1);
}

Round GossipBuildStage::duration() const {
  return static_cast<Round>(cfg_->params.phases) * block();
}

void GossipBuildStage::on_round(Round r, std::span<const sim::Message> inbox, ProtocolIo& io) {
  const Round b = block();
  const auto phase = static_cast<std::size_t>(r / b);
  const Round k = r % b;
  const graph::Graph& gi = *cfg_->inquiry[phase];

  // Absorb incoming pairs and probe deltas regardless of sub-round.
  int probe_heartbeats = 0;
  for (const auto& m : inbox) {
    switch (m.tag) {
      case kTagGossipPair:
        state_->extant.add(m.from, m.value);
        break;
      case kTagGossipProbe: {
        ++probe_heartbeats;
        if (m.has_body()) {
          ByteReader reader(m.body());
          (void)state_->extant.apply(reader);
        }
        break;
      }
      default:
        break;
    }
  }

  if (k == 0) {
    // Inquiries to absent G_i-neighbors (little nodes that survived the
    // previous phase's probing; everyone is eligible in phase 0).
    if (is_little() && (phase == 0 || state_->survived_last)) {
      for (NodeId nb : gi.neighbors(self_)) {
        if (!state_->extant.contains(nb)) io.send(nb, kTagGossipInquiry, 0, 1);
      }
    }
    return;
  }
  if (k == 1) {
    // Respond to inquiries with own pair.
    for (const auto& m : inbox) {
      if (m.tag == kTagGossipInquiry) {
        io.send(m.from, kTagGossipPair, state_->extant.rumor(self_), cfg_->params.rumor_bits);
      }
    }
    return;
  }

  // Probing sub-rounds (k = 2 .. gamma+2) among little nodes on G.
  if (!is_little()) return;
  if (k == 2) probe_.emplace(cfg_->params.probe_gamma, cfg_->params.probe_delta);
  if (probe_->step(probe_heartbeats)) {
    for (NodeId nb : cfg_->little_g->neighbors(self_)) {
      ByteWriter w(scratch_);
      auto [it, inserted] = watermark_.try_emplace(nb, 0);
      it->second = state_->extant.encode_delta(it->second, w);
      const std::uint64_t bits = std::max<std::uint64_t>(1, w.size() * 8);
      io.send(nb, kTagGossipProbe, 0, bits, w.view());
    }
  }
  if (k == b - 1) {
    state_->survived_last = probe_->survived();
    if (phase + 1 == static_cast<std::size_t>(cfg_->params.phases)) {
      state_->certified = state_->survived_last;
      state_->has_certified = state_->certified;
    }
  }
}

LinkBudget GossipBuildStage::link_budget(Round r) const {
  const Round k = r % block();
  const auto phase = static_cast<std::size_t>(r / block());
  if (k <= 1) {
    const int d = cfg_->inquiry[phase]->max_degree();
    return LinkBudget{d, d};
  }
  const int d = cfg_->little_g->max_degree();
  return LinkBudget{d, d};
}

LinkPlan GossipBuildStage::link_plan(Round r) const {
  const Round k = r % block();
  const auto phase = static_cast<std::size_t>(r / block());
  LinkPlan plan;
  if (k <= 1) {
    const auto ns = cfg_->inquiry[phase]->neighbors(self_);
    plan.out.assign(ns.begin(), ns.end());
    plan.in = plan.out;
    return plan;
  }
  if (is_little()) {
    const auto ns = cfg_->little_g->neighbors(self_);
    plan.out.assign(ns.begin(), ns.end());
    plan.in = plan.out;
  }
  return plan;
}

// ---- GossipShareStage ---------------------------------------------------------

GossipShareStage::GossipShareStage(std::shared_ptr<const GossipConfig> cfg, NodeId self,
                                   GossipState& state)
    : cfg_(std::move(cfg)), self_(self), state_(&state) {}

bool GossipShareStage::is_little() const noexcept { return self_ < cfg_->params.little_count; }

Round GossipShareStage::block() const noexcept { return 2 + (cfg_->params.probe_gamma + 1); }

Round GossipShareStage::duration() const {
  return static_cast<Round>(cfg_->params.phases) * block();
}

void GossipShareStage::on_round(Round r, std::span<const sim::Message> inbox, ProtocolIo& io) {
  const Round b = block();
  const auto phase = static_cast<std::size_t>(r / b);
  const Round k = r % b;
  const graph::Graph& gi = *cfg_->inquiry[phase];

  int probe_heartbeats = 0;
  for (const auto& m : inbox) {
    switch (m.tag) {
      case kTagGossipSet: {
        ByteReader reader(m.body());
        if (state_->extant.apply(reader)) state_->has_certified = true;
        break;
      }
      case kTagGossipComplete: {
        ++probe_heartbeats;
        if (m.has_body()) {
          ByteReader reader(m.body());
          (void)state_->completion.apply(reader);
        }
        break;
      }
      default:
        break;
    }
  }

  if (k == 0) {
    if (is_little() && state_->certified && (phase == 0 || state_->survived_last)) {
      // The certified set is identical for every recipient: encode it at
      // most once per round, lazily (most rounds complete no new neighbor).
      std::uint64_t bits = 0;
      for (NodeId nb : gi.neighbors(self_)) {
        if (state_->completion.test(static_cast<std::size_t>(nb))) continue;
        state_->completion.add(static_cast<std::size_t>(nb));
        if (bits == 0) {
          ByteWriter w(scratch_);
          state_->extant.encode_full(w);
          bits = std::max<std::uint64_t>(1, w.size() * 8);
        }
        io.send(nb, kTagGossipSet, 0, bits, sim::PayloadView(scratch_));
      }
    }
    return;
  }
  if (k == 1) return;  // receive-only sub-round for kTagGossipSet

  if (!is_little()) return;
  if (k == 2) probe_.emplace(cfg_->params.probe_gamma, cfg_->params.probe_delta);
  if (probe_->step(probe_heartbeats)) {
    for (NodeId nb : cfg_->little_g->neighbors(self_)) {
      ByteWriter w(scratch_);
      auto [it, inserted] = watermark_.try_emplace(nb, 0);
      it->second = state_->completion.encode_delta(it->second, w);
      const std::uint64_t bits = std::max<std::uint64_t>(1, w.size() * 8);
      io.send(nb, kTagGossipComplete, 0, bits, w.view());
    }
  }
  if (k == b - 1) state_->survived_last = probe_->survived();
}

LinkBudget GossipShareStage::link_budget(Round r) const {
  const Round k = r % block();
  const auto phase = static_cast<std::size_t>(r / block());
  if (k <= 1) {
    const int d = cfg_->inquiry[phase]->max_degree();
    return LinkBudget{d, d};
  }
  const int d = cfg_->little_g->max_degree();
  return LinkBudget{d, d};
}

LinkPlan GossipShareStage::link_plan(Round r) const {
  const Round k = r % block();
  const auto phase = static_cast<std::size_t>(r / block());
  LinkPlan plan;
  if (k <= 1) {
    const auto ns = cfg_->inquiry[phase]->neighbors(self_);
    plan.out.assign(ns.begin(), ns.end());
    plan.in = plan.out;
    return plan;
  }
  if (is_little()) {
    const auto ns = cfg_->little_g->neighbors(self_);
    plan.out.assign(ns.begin(), ns.end());
    plan.in = plan.out;
  }
  return plan;
}

// ---- GossipFinishStage ----------------------------------------------------------

GossipFinishStage::GossipFinishStage(std::shared_ptr<const GossipConfig> cfg, NodeId self,
                                     GossipState& state, bool decide_at_end, bool enable_pull)
    : cfg_(std::move(cfg)),
      self_(self),
      state_(&state),
      decide_at_end_(decide_at_end),
      enable_pull_(enable_pull) {}

void GossipFinishStage::on_round(Round r, std::span<const sim::Message> inbox, ProtocolIo& io) {
  if (!enable_pull_) {
    if (!state_->has_certified) io.count_fallback();  // surfaced, not repaired
    if (decide_at_end_ && state_->has_certified) {
      state_->decided = true;
      io.decide(state_->extant.digest());
    }
    return;
  }
  switch (r) {
    case 0:
      if (!state_->has_certified) {
        io.count_fallback();
        for (NodeId j = 0; j < cfg_->params.little_count; ++j) {
          if (j != self_) io.send(j, kTagGossipPull, 0, 1);
        }
      }
      break;
    case 1:
      if (self_ < cfg_->params.little_count && state_->certified) {
        // The reply payload is recipient-independent: encode at most once.
        ByteWriter w;
        std::uint64_t bits = 0;
        for (const auto& m : inbox) {
          if (m.tag == kTagGossipPull) {
            if (bits == 0) {
              state_->extant.encode_full(w);
              bits = std::max<std::uint64_t>(1, w.size() * 8);
            }
            io.send(m.from, kTagGossipSetReply, 0, bits, w.view());
          }
        }
      }
      break;
    default:
      for (const auto& m : inbox) {
        if (m.tag == kTagGossipSetReply) {
          ByteReader reader(m.body());
          if (state_->extant.apply(reader)) state_->has_certified = true;
        }
      }
      if (decide_at_end_ && state_->has_certified) {
        state_->decided = true;
        io.decide(state_->extant.digest());
      }
      break;
  }
}

// ---- GossipProcess ----------------------------------------------------------------

GossipProcess::GossipProcess(std::shared_ptr<const GossipConfig> cfg, NodeId self,
                             std::uint64_t rumor)
    : state_(cfg->params.n, self, rumor) {
  driver_.add(std::make_unique<GossipBuildStage>(cfg, self, state_));
  driver_.add(std::make_unique<GossipShareStage>(cfg, self, state_));
  driver_.add(std::make_unique<GossipFinishStage>(cfg, self, state_, /*decide_at_end=*/true));
}

void GossipProcess::on_round(sim::Context& ctx, const sim::Inbox& inbox) {
  ContextIo io(ctx);
  if (driver_.drive(ctx.round(), inbox.all(), io)) io.halt();
}

// ---- runner -------------------------------------------------------------------------

GossipOutcome run_gossip(const GossipParams& params, std::span<const std::uint64_t> rumors,
                         std::unique_ptr<sim::FaultInjector> adversary,
                         const RunOptions& options) {
  LFT_ASSERT(static_cast<NodeId>(rumors.size()) == params.n);
  auto cfg = GossipConfig::build(params);

  sim::EngineConfig engine_config;
  engine_config.crash_budget = params.t;
  engine_config.omission_budget = params.t;
  engine_config.threads = options.threads;
  engine_config.scratch = options.scratch;
  engine_config.trace = options.trace;
  engine_config.telemetry = options.telemetry;
  sim::Engine engine(params.n, engine_config);
  for (NodeId v = 0; v < params.n; ++v) {
    engine.set_process(
        v, std::make_unique<GossipProcess>(cfg, v, rumors[static_cast<std::size_t>(v)]));
  }
  if (adversary != nullptr) engine.add_fault_injector(std::move(adversary));

  GossipOutcome out;
  out.report = engine.run();

  out.termination = out.report.completed;
  out.condition1 = true;
  out.condition2 = true;
  out.rumors_intact = true;
  for (NodeId v = 0; v < params.n; ++v) {
    const auto& status = out.report.nodes[static_cast<std::size_t>(v)];
    const auto& proc = static_cast<const GossipProcess&>(engine.process(v));
    // Faulty nodes are exempt on the holder side too: an omission-faulty
    // node's own decision and extant set carry no guarantee.
    if (status.crashed || status.omission) continue;
    if (!proc.state().decided) {
      out.termination = false;
      continue;
    }
    const ExtantSet& set = proc.state().extant;
    for (NodeId j = 0; j < params.n; ++j) {
      const auto& js = out.report.nodes[static_cast<std::size_t>(j)];
      const bool never_sent = js.crashed && js.sends == 0;
      // Condition (2) applies to non-faulty nodes: an omission-faulty node's
      // pairs may legitimately be missing from decided sets (its sends were
      // lost in transit), exactly like a crashed node's.
      const bool halted_operational = !js.crashed && !js.omission;
      if (never_sent && j != v && set.contains(j)) out.condition1 = false;
      if (halted_operational && !set.contains(j)) out.condition2 = false;
      if (set.contains(j) && set.rumor(j) != rumors[static_cast<std::size_t>(j)]) {
        out.rumors_intact = false;
      }
    }
  }
  return out;
}

}  // namespace lft::core
