#include "core/stages.hpp"

#include <algorithm>

#include "common/assert.hpp"

namespace lft::core {

namespace {

LinkPlan graph_plan(const graph::Graph& g, NodeId self, bool member) {
  LinkPlan plan;
  if (!member) return plan;
  const auto ns = g.neighbors(self);
  plan.out.assign(ns.begin(), ns.end());
  plan.in = plan.out;
  return plan;
}

}  // namespace

// ---- FloodRumorStage ---------------------------------------------------------

FloodRumorStage::FloodRumorStage(NodeId self, NodeId member_count, const graph::Graph& g,
                                 Round rounds, BinaryState& state)
    : self_(self), members_(member_count), g_(g), rounds_(rounds), state_(&state) {
  LFT_ASSERT(rounds_ >= 1);
  LFT_ASSERT(g_.num_vertices() >= members_);
}

void FloodRumorStage::on_round(Round r, std::span<const sim::Message> inbox, ProtocolIo& io) {
  if (!is_member()) return;
  bool flipped = false;
  for (const auto& m : inbox) {
    if (m.tag == kTagRumor && m.value == 1 && state_->candidate == 0) {
      state_->candidate = 1;
      flipped = true;
    }
  }
  const bool start_broadcast = (r == 0 && state_->candidate == 1);
  if ((start_broadcast || flipped) && !sent_) {
    sent_ = true;
    for (NodeId nb : g_.neighbors(self_)) io.send(nb, kTagRumor, 1, 1);
  }
}

LinkBudget FloodRumorStage::link_budget(Round) const {
  return LinkBudget{g_.max_degree(), g_.max_degree()};
}

LinkPlan FloodRumorStage::link_plan(Round) const { return graph_plan(g_, self_, is_member()); }

// ---- ProbeStage ----------------------------------------------------------------

ProbeStage::ProbeStage(NodeId self, NodeId member_count, const graph::Graph& g, int gamma,
                       int delta, BinaryState& state, bool decide_on_survive)
    : self_(self),
      members_(member_count),
      g_(g),
      probe_(gamma, delta),
      state_(&state),
      decide_on_survive_(decide_on_survive) {
  LFT_ASSERT(g_.num_vertices() >= members_);
}

void ProbeStage::on_round(Round r, std::span<const sim::Message> inbox, ProtocolIo& io) {
  if (!is_member()) return;
  int probe_count = 0;
  for (const auto& m : inbox) {
    if (m.tag == kTagProbe) ++probe_count;
    if ((m.tag == kTagProbe || m.tag == kTagRumor) && m.value == 1 && state_->candidate == 0) {
      state_->candidate = 1;  // pseudocode stipulation (b)
    }
  }
  if (probe_.step(probe_count)) {
    for (NodeId nb : g_.neighbors(self_)) {
      io.send(nb, kTagProbe, static_cast<std::uint64_t>(state_->candidate), 1);
    }
  }
  if (r + 1 == duration() && probe_.survived()) {
    state_->survived_probe = true;
    if (decide_on_survive_ && !state_->has_value) {
      state_->has_value = true;
      state_->value = static_cast<std::uint64_t>(state_->candidate);
      io.decide(state_->value);
    }
  }
}

LinkBudget ProbeStage::link_budget(Round) const {
  return LinkBudget{g_.max_degree(), g_.max_degree()};
}

LinkPlan ProbeStage::link_plan(Round) const { return graph_plan(g_, self_, is_member()); }

// ---- NotifyRelatedStage ---------------------------------------------------------

NotifyRelatedStage::NotifyRelatedStage(NodeId self, NodeId n, NodeId little_count,
                                       BinaryState& state)
    : self_(self), n_(n), little_(little_count), state_(&state) {
  LFT_ASSERT(little_ >= 1 && little_ <= n_);
}

void NotifyRelatedStage::on_round(Round r, std::span<const sim::Message> inbox,
                                  ProtocolIo& io) {
  const bool is_little = self_ < little_;
  if (r == 0) {
    if (is_little && state_->has_value) {
      for (NodeId j = self_ + little_; j < n_; j += little_) {
        io.send(j, kTagNotify, state_->value, 1);
      }
    }
    return;
  }
  if (!is_little && !state_->has_value) {
    for (const auto& m : inbox) {
      if (m.tag == kTagNotify) {
        state_->has_value = true;
        state_->value = m.value;
        state_->candidate = static_cast<int>(m.value & 1);
        io.decide(state_->value);
        break;
      }
    }
  }
}

LinkBudget NotifyRelatedStage::link_budget(Round r) const {
  if (r != 0) return {};
  return LinkBudget{static_cast<int>((n_ + little_ - 1) / little_), 1};
}

LinkPlan NotifyRelatedStage::link_plan(Round r) const {
  LinkPlan plan;
  if (r != 0) return plan;
  if (self_ < little_) {
    for (NodeId j = self_ + little_; j < n_; j += little_) plan.out.push_back(j);
  } else {
    plan.in.push_back(self_ % little_);
  }
  return plan;
}

// ---- SpreadFloodStage --------------------------------------------------------------

SpreadFloodStage::SpreadFloodStage(NodeId self, const graph::Graph& h, Round rounds,
                                   BinaryState& state, std::uint64_t value_bits)
    : self_(self), h_(h), rounds_(rounds), state_(&state), value_bits_(value_bits) {
  LFT_ASSERT(rounds_ >= 1);
}

void SpreadFloodStage::on_round(Round r, std::span<const sim::Message> inbox, ProtocolIo& io) {
  bool adopted = false;
  for (const auto& m : inbox) {
    if (m.tag == kTagSpread && !state_->has_value) {
      state_->has_value = true;
      state_->value = m.value;
      state_->candidate = static_cast<int>(m.value & 1);
      io.decide(state_->value);
      adopted = true;
    }
  }
  const bool start_broadcast = (r == 0 && state_->has_value);
  if (start_broadcast) {
    // Nodes initialized with the common value count as decided on it.
    io.decide(state_->value);
  }
  if ((start_broadcast || adopted) && !forwarded_ && r < rounds_) {
    forwarded_ = true;
    for (NodeId nb : h_.neighbors(self_)) io.send(nb, kTagSpread, state_->value, value_bits_);
  }
}

LinkBudget SpreadFloodStage::link_budget(Round r) const {
  if (r >= rounds_) return {};
  return LinkBudget{h_.max_degree(), h_.max_degree()};
}

LinkPlan SpreadFloodStage::link_plan(Round r) const {
  if (r >= rounds_) return {};
  return graph_plan(h_, self_, true);
}

// ---- InquiryPhasesStage --------------------------------------------------------------

InquiryPhasesStage::InquiryPhasesStage(NodeId self, std::span<const graph::PhaseGraph> graphs,
                                       BinaryState& state, std::uint64_t value_bits)
    : self_(self), graphs_(graphs), state_(&state), value_bits_(value_bits) {
  LFT_ASSERT(!graphs_.empty());
}

void InquiryPhasesStage::on_round(Round r, std::span<const sim::Message> inbox,
                                  ProtocolIo& io) {
  // Replies from the previous phase arrive on even rounds (and on the final
  // absorb-only round).
  for (const auto& m : inbox) {
    if (m.tag == kTagReply && !state_->has_value) {
      state_->has_value = true;
      state_->value = m.value;
      state_->candidate = static_cast<int>(m.value & 1);
      io.decide(state_->value);
    }
  }
  if (r == 2 * static_cast<Round>(graphs_.size())) return;  // absorb-only
  const auto phase = static_cast<std::size_t>(r / 2);
  const graph::PhaseGraph& gi = graphs_[phase];
  if (r % 2 == 0) {
    if (!state_->has_value) {
      gi.for_each_neighbor(self_, [&io](NodeId nb) { io.send(nb, kTagInquiry, 0, 1); });
    }
  } else {
    if (state_->has_value) {
      for (const auto& m : inbox) {
        if (m.tag == kTagInquiry) io.send(m.from, kTagReply, state_->value, value_bits_);
      }
    }
  }
}

LinkBudget InquiryPhasesStage::link_budget(Round r) const {
  if (r == 2 * static_cast<Round>(graphs_.size())) return {};
  const auto phase = static_cast<std::size_t>(r / 2);
  const int d = graphs_[phase].max_degree();
  return LinkBudget{d, d};
}

Round InquiryPhasesStage::quiescent_until(Round r) const {
  if (state_->has_value) return duration();
  // Clamped so the absorb-only final round (even) cannot overshoot the stage
  // boundary and skip the next stage's round 0.
  return std::min(r % 2 == 0 ? r + 2 : r + 1, duration());
}

LinkPlan InquiryPhasesStage::link_plan(Round r) const {
  if (r == 2 * static_cast<Round>(graphs_.size())) return {};
  const auto phase = static_cast<std::size_t>(r / 2);
  LinkPlan plan;
  graphs_[phase].append_neighbors(self_, plan.out);
  plan.in = plan.out;
  return plan;
}

// ---- PullStage -----------------------------------------------------------------------

PullStage::PullStage(NodeId self, NodeId target_count, BinaryState& state, bool fallback_metric,
                     std::uint64_t value_bits)
    : self_(self),
      targets_(target_count),
      state_(&state),
      fallback_metric_(fallback_metric),
      value_bits_(value_bits) {
  LFT_ASSERT(targets_ >= 1);
}

void PullStage::on_round(Round r, std::span<const sim::Message> inbox, ProtocolIo& io) {
  switch (r) {
    case 0:
      if (!state_->has_value) {
        if (fallback_metric_) io.count_fallback();
        for (NodeId j = 0; j < targets_; ++j) {
          if (j != self_) io.send(j, kTagPull, 0, 1);
        }
      }
      break;
    case 1:
      if (state_->has_value) {
        for (const auto& m : inbox) {
          if (m.tag == kTagPull) io.send(m.from, kTagPullReply, state_->value, value_bits_);
        }
      }
      break;
    default:
      for (const auto& m : inbox) {
        if (m.tag == kTagPullReply && !state_->has_value) {
          state_->has_value = true;
          state_->value = m.value;
          state_->candidate = static_cast<int>(m.value & 1);
          io.decide(state_->value);
        }
      }
      break;
  }
}

// ---- StageProcess --------------------------------------------------------------------

void StageProcess::on_round(sim::Context& ctx, const sim::Inbox& inbox) {
  ContextIo io(ctx);
  const Round round = ctx.round();
  if (driver_.drive(round, inbox.all(), io)) {
    io.halt();
    return;
  }
  const Round wake = driver_.quiescent_until(round);
  if (wake > round + 1) io.sleep_until(wake);
}

}  // namespace lft::core
