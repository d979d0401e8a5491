#include "core/vector_consensus.hpp"

#include <algorithm>

#include "common/assert.hpp"
#include "core/consensus.hpp"
#include "core/stages.hpp"
#include "core/tags.hpp"

namespace lft::core {

namespace {

std::uint64_t bitset_bits(const DynamicBitset& b) {
  return std::max<std::uint64_t>(1, b.size());
}

/// Serializes `b` into `scratch` and returns a view of it (valid until the
/// scratch buffer is reused — the engine copies it out during send).
sim::PayloadView encode_bitset(const DynamicBitset& b, std::vector<std::byte>& scratch) {
  ByteWriter w(scratch);
  w.put_bitset(b);
  return w.view();
}

std::optional<DynamicBitset> decode_bitset(const sim::Message& m, NodeId n) {
  ByteReader r(m.body());
  return r.get_bitset(static_cast<std::size_t>(n));
}

}  // namespace

std::shared_ptr<const VectorConsensusConfig> VectorConsensusConfig::build(
    const ConsensusParams& params, NodeId instances) {
  auto cfg = std::make_shared<VectorConsensusConfig>();
  cfg->params = params;
  cfg->instances = instances > 0 ? instances : params.n;
  auto overlays = consensus_overlays(
      params, {.little_g = true,
               .spread_h = true,
               .inquiry_phases = params.use_little_pull ? 0 : params.scv_phases,
               .inquiry_tag = params.overlay_tag ^ (kOverlayInquiryBase + 900)});
  cfg->little_g = std::move(overlays.little_g);
  cfg->spread_h = std::move(overlays.spread_h);
  cfg->inquiry = std::move(overlays.inquiry);
  return cfg;
}

// ---- VecFloodStage -----------------------------------------------------------

VecFloodStage::VecFloodStage(std::shared_ptr<const VectorConsensusConfig> cfg, NodeId self,
                             VectorState& state, VectorInit init)
    : cfg_(std::move(cfg)), self_(self), state_(&state), init_(std::move(init)) {}

Round VecFloodStage::duration() const { return cfg_->params.flood_rounds_little; }

void VecFloodStage::on_round(Round r, std::span<const sim::Message> inbox, ProtocolIo& io) {
  if (self_ >= cfg_->params.little_count) return;
  if (r == 0 && init_) state_->candidate.merge(init_());
  for (const auto& m : inbox) {
    if (m.tag == kTagVecRumor) {
      ByteReader reader(m.body());
      (void)state_->candidate.apply(reader);
    }
  }
  if (state_->candidate.log_size() > state_->broadcast_mark) {
    // One delta per round, broadcast to every neighbor: encode once.
    ByteWriter w(scratch_);
    (void)state_->candidate.encode_delta(state_->broadcast_mark, w);
    for (NodeId nb : cfg_->little_g->neighbors(self_)) {
      io.send(nb, kTagVecRumor, 0, std::max<std::uint64_t>(1, w.size() * 8), w.view());
    }
    state_->broadcast_mark = state_->candidate.log_size();
  }
}

// ---- VecProbeStage -------------------------------------------------------------

VecProbeStage::VecProbeStage(std::shared_ptr<const VectorConsensusConfig> cfg, NodeId self,
                             VectorState& state)
    : cfg_(std::move(cfg)),
      self_(self),
      state_(&state),
      probe_(cfg_->params.probe_gamma_little, cfg_->params.probe_delta_little) {}

Round VecProbeStage::duration() const { return probe_.duration(); }

void VecProbeStage::on_round(Round r, std::span<const sim::Message> inbox, ProtocolIo& io) {
  if (self_ >= cfg_->params.little_count) return;
  int heartbeats = 0;
  for (const auto& m : inbox) {
    if (m.tag == kTagVecProbe) {
      ++heartbeats;
      if (m.has_body()) {
        ByteReader reader(m.body());
        (void)state_->candidate.apply(reader);
      }
    } else if (m.tag == kTagVecRumor) {
      ByteReader reader(m.body());
      (void)state_->candidate.apply(reader);
    }
  }
  if (probe_.step(heartbeats)) {
    ByteWriter w(scratch_);
    (void)state_->candidate.encode_delta(state_->broadcast_mark, w);
    for (NodeId nb : cfg_->little_g->neighbors(self_)) {
      io.send(nb, kTagVecProbe, 0, std::max<std::uint64_t>(1, w.size() * 8), w.view());
    }
    state_->broadcast_mark = state_->candidate.log_size();
  }
  if (r + 1 == duration() && probe_.survived()) {
    state_->survived_probe = true;
    state_->has_value = true;
    state_->value = state_->candidate.bits();
    state_->decided = true;
    io.decide(state_->candidate.digest());
  }
}

// ---- VecNotifyStage --------------------------------------------------------------

VecNotifyStage::VecNotifyStage(std::shared_ptr<const VectorConsensusConfig> cfg, NodeId self,
                               VectorState& state)
    : cfg_(std::move(cfg)), self_(self), state_(&state) {}

void VecNotifyStage::on_round(Round r, std::span<const sim::Message> inbox, ProtocolIo& io) {
  const NodeId little = cfg_->params.little_count;
  if (r == 0) {
    if (self_ < little && state_->has_value) {
      const sim::PayloadView body = encode_bitset(*state_->value, scratch_);
      for (NodeId j = self_ + little; j < cfg_->params.n; j += little) {
        io.send(j, kTagVecNotify, 0, bitset_bits(*state_->value), body);
      }
    }
    return;
  }
  if (self_ >= little && !state_->has_value) {
    for (const auto& m : inbox) {
      if (m.tag != kTagVecNotify) continue;
      auto decoded = decode_bitset(m, cfg_->instances);
      if (!decoded) continue;
      state_->has_value = true;
      state_->value = std::move(*decoded);
      state_->decided = true;
      GrowingBitset g(state_->value->size());
      g.merge(*state_->value);
      io.decide(g.digest());
      break;
    }
  }
}

// ---- VecSpreadStage ----------------------------------------------------------------

VecSpreadStage::VecSpreadStage(std::shared_ptr<const VectorConsensusConfig> cfg, NodeId self,
                               VectorState& state)
    : cfg_(std::move(cfg)), self_(self), state_(&state) {}

Round VecSpreadStage::duration() const { return cfg_->params.spread_rounds + 1; }

void VecSpreadStage::on_round(Round r, std::span<const sim::Message> inbox, ProtocolIo& io) {
  bool adopted = false;
  for (const auto& m : inbox) {
    if (m.tag != kTagVecSpread || state_->has_value) continue;
    auto decoded = decode_bitset(m, cfg_->instances);
    if (!decoded) continue;
    state_->has_value = true;
    state_->value = std::move(*decoded);
    state_->decided = true;
    GrowingBitset g(state_->value->size());
    g.merge(*state_->value);
    io.decide(g.digest());
    adopted = true;
  }
  const bool start = (r == 0 && state_->has_value);
  if ((start || adopted) && !forwarded_ && r < cfg_->params.spread_rounds) {
    forwarded_ = true;
    const sim::PayloadView body = encode_bitset(*state_->value, scratch_);
    for (NodeId nb : cfg_->spread_h->neighbors(self_)) {
      io.send(nb, kTagVecSpread, 0, bitset_bits(*state_->value), body);
    }
  }
}

// ---- VecInquiryStage -----------------------------------------------------------------

VecInquiryStage::VecInquiryStage(std::shared_ptr<const VectorConsensusConfig> cfg, NodeId self,
                                 VectorState& state, int mode)
    : cfg_(std::move(cfg)), self_(self), state_(&state), mode_(mode) {
  LFT_ASSERT(mode_ >= 0 && mode_ <= 2);
  LFT_ASSERT(mode_ != 0 || !cfg_->inquiry.empty());
}

Round VecInquiryStage::duration() const {
  return mode_ == 0 ? 2 * static_cast<Round>(cfg_->inquiry.size()) + 1 : 3;
}

void VecInquiryStage::adopt(const sim::Message& m, ProtocolIo& io) {
  if (state_->has_value) return;
  auto decoded = decode_bitset(m, cfg_->instances);
  if (!decoded) return;
  state_->has_value = true;
  state_->value = std::move(*decoded);
  state_->decided = true;
  GrowingBitset g(state_->value->size());
  g.merge(*state_->value);
  io.decide(g.digest());
}

void VecInquiryStage::on_round(Round r, std::span<const sim::Message> inbox, ProtocolIo& io) {
  for (const auto& m : inbox) {
    if (m.tag == kTagVecReply || m.tag == kTagVecPullReply) adopt(m, io);
  }
  if (mode_ == 0) {
    if (r == 2 * static_cast<Round>(cfg_->inquiry.size())) return;
    const auto phase = static_cast<std::size_t>(r / 2);
    const graph::PhaseGraph& gi = cfg_->inquiry[phase];
    if (r % 2 == 0) {
      if (!state_->has_value) {
        gi.for_each_neighbor(self_, [&io](NodeId nb) { io.send(nb, kTagVecInquiry, 0, 1); });
      }
    } else if (state_->has_value) {
      const sim::PayloadView body = encode_bitset(*state_->value, scratch_);
      for (const auto& m : inbox) {
        if (m.tag == kTagVecInquiry) {
          io.send(m.from, kTagVecReply, 0, bitset_bits(*state_->value), body);
        }
      }
    }
    return;
  }
  // Pull modes.
  switch (r) {
    case 0:
      if (!state_->has_value) {
        if (mode_ == 2) io.count_fallback();
        for (NodeId j = 0; j < cfg_->params.little_count; ++j) {
          if (j != self_) io.send(j, kTagVecPull, 0, 1);
        }
      }
      break;
    case 1:
      if (state_->has_value) {
        const sim::PayloadView body = encode_bitset(*state_->value, scratch_);
        for (const auto& m : inbox) {
          if (m.tag == kTagVecPull) {
            io.send(m.from, kTagVecPullReply, 0, bitset_bits(*state_->value), body);
          }
        }
      }
      break;
    default:
      break;  // adoption handled at the top
  }
}

// ---- pipeline ---------------------------------------------------------------------------

void append_vector_consensus_stages(std::vector<std::unique_ptr<Stage>>& stages,
                                    std::shared_ptr<const VectorConsensusConfig> cfg,
                                    NodeId self, VectorState& state, VectorInit init) {
  stages.push_back(std::make_unique<VecFloodStage>(cfg, self, state, std::move(init)));
  stages.push_back(std::make_unique<VecProbeStage>(cfg, self, state));
  stages.push_back(std::make_unique<VecNotifyStage>(cfg, self, state));
  stages.push_back(std::make_unique<VecSpreadStage>(cfg, self, state));
  if (cfg->params.use_little_pull) {
    stages.push_back(std::make_unique<VecInquiryStage>(cfg, self, state, 1));
  } else {
    stages.push_back(std::make_unique<VecInquiryStage>(cfg, self, state, 0));
    if (cfg->params.guarantee_termination) {
      stages.push_back(std::make_unique<VecInquiryStage>(cfg, self, state, 2));
    }
  }
}

}  // namespace lft::core
