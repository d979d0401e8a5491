#include "byzantine/ab_consensus.hpp"

#include <algorithm>

#include "common/assert.hpp"
#include "common/math.hpp"
#include "common/rng.hpp"
#include "core/stages.hpp"
#include "core/tags.hpp"
#include "graph/overlay.hpp"

namespace lft::byzantine {

using core::kTagAbCert;
using core::kTagAbInquiry;
using core::kTagAbNotify;
using core::kTagAbReply;
using core::kTagAbSpread;
using core::kTagDsRelay;

namespace {

crypto::Digest inquiry_digest(NodeId who) {
  return hash_combine(0x61625f696e717579ULL /* "ab_inquy" */,
                      static_cast<std::uint64_t>(who));
}

}  // namespace

AbParams AbParams::practical(NodeId n, std::int64_t t) {
  LFT_ASSERT(n >= 1 && t >= 0 && 2 * t < n);
  AbParams p;
  p.n = n;
  p.t = t;
  p.little_count =
      static_cast<NodeId>(std::clamp<std::int64_t>(5 * t, 1, static_cast<std::int64_t>(n)));
  p.cert_threshold = static_cast<NodeId>(std::max<std::int64_t>(1, p.little_count - t));
  p.spread_rounds = std::max<Round>(1, 3 * lg_rounds(static_cast<std::uint64_t>(n)));
  return p;
}

std::shared_ptr<const AbConfig> AbConfig::build(const AbParams& params) {
  auto cfg = std::make_shared<AbConfig>();
  cfg->params = params;
  cfg->registry = std::make_shared<crypto::KeyRegistry>(params.n, params.registry_seed);
  const int degree = std::max(1, std::min<int>(params.spread_degree, params.n - 1));
  cfg->spread_h =
      graph::shared_overlay(params.n, degree, params.overlay_tag ^ core::kOverlaySpreadH);
  return cfg;
}

Round AbConfig::duration() const {
  // DS (t+2) + cert sign/collect (2) + notify send/receive (2) +
  // spread (spread_rounds + 1) + inquiry/reply/adopt (3).
  return (params.t + 2) + 2 + 2 + (params.spread_rounds + 1) + 3;
}

AbConsensusProcess::AbConsensusProcess(std::shared_ptr<const AbConfig> cfg, NodeId self,
                                       std::uint64_t input)
    : cfg_(std::move(cfg)),
      self_(self),
      input_(input),
      signer_(cfg_->registry->signer_for(self)),
      ds_(cfg_->registry, signer_, cfg_->params.little_count, cfg_->params.t) {
  if (is_little()) ds_.set_own_value(input_);
}

bool AbConsensusProcess::is_little() const noexcept {
  return self_ < cfg_->params.little_count;
}

void AbConsensusProcess::adopt(const sim::Message& m, core::ProtocolIo& io, bool forward) {
  if (certified_.has_value()) return;
  ByteReader reader(m.body());
  auto set = CertifiedSet::decode(reader, cfg_->params.little_count);
  if (!set ||
      !set->valid(*cfg_->registry, cfg_->params.little_count, cfg_->params.cert_threshold)) {
    return;
  }
  certified_ = std::move(*set);
  io.decide(certified_->values.max_value());
  if (forward) forward_certified(io);
}

void AbConsensusProcess::forward_certified(core::ProtocolIo& io) {
  if (forwarded_ || !certified_.has_value()) return;
  forwarded_ = true;
  ByteWriter w;
  certified_->encode(w);
  for (NodeId nb : cfg_->spread_h->neighbors(self_)) {
    io.send(nb, kTagAbSpread, 0, std::max<std::uint64_t>(1, w.size() * 8), w.view());
  }
}

void AbConsensusProcess::run_round(Round r, std::span<const sim::Message> inbox,
                                   core::ProtocolIo& io) {
  const auto& p = cfg_->params;
  const Round ds_end = p.t + 2;              // rounds [0, ds_end): DS
  const Round cert_sign = ds_end;            // sign + broadcast digest sig
  const Round cert_collect = ds_end + 1;     // collect quorum
  const Round notify_send = ds_end + 2;      // little -> related
  const Round notify_recv = ds_end + 3;
  const Round spread_begin = ds_end + 4;     // flooding over H
  const Round spread_end = spread_begin + p.spread_rounds;  // adopt-only round
  const Round inquire = spread_end + 1;
  const Round reply = spread_end + 2;
  const Round finish = spread_end + 3;

  if (r < ds_end) {
    if (is_little()) {
      auto combined = ds_.step(r, inbox);
      if (!combined.empty()) {
        for (NodeId w = 0; w < p.little_count; ++w) {
          if (w != self_) {
            io.send(w, kTagDsRelay, 0,
                     std::max<std::uint64_t>(1, combined.size() * 8), combined);
          }
        }
      }
    }
    return;
  }

  if (r == cert_sign) {
    if (is_little()) {
      acs_ = ds_.result();
      const crypto::Signature sig = signer_.sign(acs_->digest());
      cert_sigs_.push_back(sig);  // own signature counts toward the quorum
      ByteWriter w;
      w.put_varint(static_cast<std::uint64_t>(sig.signer));
      w.put_u64(sig.tag);
      for (NodeId v = 0; v < p.little_count; ++v) {
        if (v != self_) io.send(v, kTagAbCert, 0, 128, w.view());
      }
    }
    return;
  }

  if (r == cert_collect) {
    if (is_little() && acs_.has_value()) {
      const crypto::Digest digest = acs_->digest();
      for (const auto& m : inbox) {
        if (m.tag != kTagAbCert) continue;
        ByteReader reader(m.body());
        const auto signer = reader.get_varint();
        const auto tag = reader.get_u64();
        if (!signer || !tag) continue;
        const crypto::Signature sig{static_cast<NodeId>(*signer), *tag};
        if (sig.signer >= 0 && sig.signer < p.little_count &&
            cfg_->registry->verify(sig, digest)) {
          cert_sigs_.push_back(sig);
        }
      }
      std::sort(cert_sigs_.begin(), cert_sigs_.end(),
                [](const auto& a, const auto& b) { return a.signer < b.signer; });
      cert_sigs_.erase(std::unique(cert_sigs_.begin(), cert_sigs_.end()), cert_sigs_.end());
      if (static_cast<NodeId>(cert_sigs_.size()) >= p.cert_threshold) {
        certified_ = CertifiedSet{*acs_, cert_sigs_};
        io.decide(certified_->values.max_value());
      }
    }
    return;
  }

  if (r == notify_send) {
    if (is_little() && certified_.has_value()) {
      ByteWriter w;
      certified_->encode(w);
      for (NodeId j = self_ + p.little_count; j < p.n; j += p.little_count) {
        io.send(j, kTagAbNotify, 0, std::max<std::uint64_t>(1, w.size() * 8), w.view());
      }
    }
    return;
  }

  if (r == notify_recv) {
    for (const auto& m : inbox) {
      if (m.tag == kTagAbNotify) adopt(m, io, /*forward=*/false);
    }
    return;
  }

  if (r >= spread_begin && r <= spread_end) {
    for (const auto& m : inbox) {
      if (m.tag == kTagAbSpread) adopt(m, io, /*forward=*/r < spread_end);
    }
    if (r == spread_begin) forward_certified(io);
    return;
  }

  if (r == inquire) {
    if (!certified_.has_value()) {
      const crypto::Signature sig = signer_.sign(inquiry_digest(self_));
      ByteWriter w;
      w.put_varint(static_cast<std::uint64_t>(sig.signer));
      w.put_u64(sig.tag);
      for (NodeId v = 0; v < p.little_count; ++v) {
        if (v != self_) io.send(v, kTagAbInquiry, 0, 128, w.view());
      }
    }
    return;
  }

  if (r == reply) {
    if (is_little() && certified_.has_value()) {
      ByteWriter set_bytes;
      certified_->encode(set_bytes);
      for (const auto& m : inbox) {
        if (m.tag != kTagAbInquiry) continue;
        ByteReader reader(m.body());
        const auto signer = reader.get_varint();
        const auto tag = reader.get_u64();
        if (!signer || !tag) continue;
        const crypto::Signature sig{static_cast<NodeId>(*signer), *tag};
        // Authenticated inquiry: the claimed sender must have signed it.
        if (sig.signer != m.from || !cfg_->registry->verify(sig, inquiry_digest(m.from))) {
          continue;
        }
        io.send(m.from, kTagAbReply, 0,
                 std::max<std::uint64_t>(1, set_bytes.size() * 8), set_bytes.view());
      }
    }
    return;
  }

  if (r >= finish) {
    for (const auto& m : inbox) {
      if (m.tag == kTagAbReply) adopt(m, io, /*forward=*/false);
    }
    io.halt();
  }
}

void AbConsensusProcess::on_round(sim::Context& ctx, const sim::Inbox& inbox) {
  core::drive_on_engine(*this, ctx, inbox);
}

// ---- Byzantine behaviors -------------------------------------------------------

namespace {

/// Sends nothing, ever.
class SilentByz final : public sim::Process {
 public:
  void on_round(sim::Context& ctx, const sim::Inbox&) override {
    if (ctx.round() > 64) ctx.halt();
  }
};

/// A little source that signs value 0 for odd little nodes and value 1 for
/// even ones in DS round 0, then stays silent: the classical equivocation
/// attack that authentication must resolve to a consistent outcome.
class EquivocatorByz final : public sim::Process {
 public:
  EquivocatorByz(std::shared_ptr<const AbConfig> cfg, NodeId self)
      : cfg_(std::move(cfg)), self_(self), signer_(cfg_->registry->signer_for(self)) {}

  void on_round(sim::Context& ctx, const sim::Inbox&) override {
    const auto& p = cfg_->params;
    if (ctx.round() == 0 && self_ < p.little_count) {
      for (NodeId w = 0; w < p.little_count; ++w) {
        if (w == self_) continue;
        SignedRelay relay;
        relay.origin = self_;
        relay.value = static_cast<std::uint64_t>(w % 2);
        relay.chain.push_back(
            signer_.sign(SignedRelay::payload_digest(relay.origin, relay.value)));
        ByteWriter writer;
        writer.put_varint(1);
        relay.encode(writer);
        ctx.send(w, kTagDsRelay, 0, std::max<std::uint64_t>(1, writer.size() * 8),
                 writer.view());
      }
    }
    if (ctx.round() > cfg_->duration()) ctx.halt();
  }

 private:
  std::shared_ptr<const AbConfig> cfg_;
  NodeId self_;
  crypto::Signer signer_;
};

/// Floods honest nodes with malformed bodies, forged chains (invalid tags),
/// and self-signed values for *other* origins — all of which verification
/// must reject.
class FloodByz final : public sim::Process {
 public:
  FloodByz(std::shared_ptr<const AbConfig> cfg, NodeId self, std::uint64_t seed)
      : cfg_(std::move(cfg)),
        self_(self),
        signer_(cfg_->registry->signer_for(self)),
        rng_(seed) {}

  void on_round(sim::Context& ctx, const sim::Inbox&) override {
    const auto& p = cfg_->params;
    if (ctx.round() > cfg_->duration()) {
      ctx.halt();
      return;
    }
    for (int k = 0; k < 4; ++k) {
      const auto target = static_cast<NodeId>(rng_.uniform(static_cast<std::uint64_t>(p.n)));
      if (target == self_) continue;
      switch (rng_.uniform(3)) {
        case 0: {  // random garbage
          std::vector<std::byte> junk(rng_.uniform(40) + 1);
          for (auto& b : junk) b = static_cast<std::byte>(rng_.next());
          const std::uint64_t junk_bits = junk.size() * 8;
          ctx.send(target, kTagDsRelay, 0, junk_bits, junk);
          break;
        }
        case 1: {  // forged chain: random tags claiming other signers
          SignedRelay relay;
          relay.origin = static_cast<NodeId>(
              rng_.uniform(static_cast<std::uint64_t>(p.little_count)));
          relay.value = rng_.uniform(2);
          const int len = static_cast<int>(rng_.uniform(3)) + 1;
          for (int i = 0; i < len; ++i) {
            relay.chain.push_back(crypto::Signature{
                static_cast<NodeId>(rng_.uniform(static_cast<std::uint64_t>(p.little_count))),
                rng_.next()});
          }
          ByteWriter w;
          w.put_varint(1);
          relay.encode(w);
          ctx.send(target, kTagDsRelay, 0, w.size() * 8, w.view());
          break;
        }
        default: {  // fake certified set with a bogus quorum
          ValueSet values(p.little_count);
          for (NodeId i = 0; i < p.little_count; ++i) values.set_value(i, rng_.uniform(2));
          CertifiedSet set{values, {}};
          for (NodeId i = 0; i < p.cert_threshold; ++i) {
            set.quorum.push_back(crypto::Signature{i, rng_.next()});
          }
          ByteWriter w;
          set.encode(w);
          ctx.send(target, kTagAbSpread, 0, w.size() * 8, w.view());
          break;
        }
      }
    }
  }

 private:
  std::shared_ptr<const AbConfig> cfg_;
  NodeId self_;
  crypto::Signer signer_;
  Rng rng_;
};

}  // namespace

std::unique_ptr<sim::Process> make_byzantine_process(const std::string& kind,
                                                     std::shared_ptr<const AbConfig> cfg,
                                                     NodeId self, std::uint64_t seed) {
  if (kind == "silent") return std::make_unique<SilentByz>();
  if (kind == "equivocate") return std::make_unique<EquivocatorByz>(std::move(cfg), self);
  if (kind == "flood") return std::make_unique<FloodByz>(std::move(cfg), self, seed);
  LFT_ASSERT_MSG(false, "unknown Byzantine behavior kind");
  return nullptr;
}

AbOutcome run_ab_consensus(const AbParams& params, std::span<const std::uint64_t> inputs,
                           const std::vector<std::pair<NodeId, std::string>>& byzantine) {
  LFT_ASSERT(static_cast<std::int64_t>(byzantine.size()) <= params.t);
  // The static byzantine set is the degenerate fault plan: every takeover
  // fires in the pre-round phase of round 0, before any honest send.
  sim::FaultPlan plan;
  for (const auto& [node, kind] : byzantine) plan.takeover(node, 0, kind);
  return run_ab_consensus_plan(params, inputs, std::move(plan));
}

AbOutcome run_ab_consensus_plan(const AbParams& params, std::span<const std::uint64_t> inputs,
                                sim::FaultPlan plan, const core::RunOptions& options) {
  LFT_ASSERT(static_cast<NodeId>(inputs.size()) == params.n);
  auto cfg = AbConfig::build(params);

  sim::EngineConfig engine_config;
  engine_config.max_rounds = cfg->duration() + 8;
  engine_config.crash_budget = params.t;
  engine_config.omission_budget = params.t;
  engine_config.byzantine_budget = params.t;
  engine_config.threads = options.threads;
  engine_config.scratch = options.scratch;
  engine_config.trace = options.trace;
  engine_config.telemetry = options.telemetry;
  sim::Engine engine(params.n, engine_config);

  for (NodeId v = 0; v < params.n; ++v) {
    engine.set_process(
        v, std::make_unique<AbConsensusProcess>(cfg, v, inputs[static_cast<std::size_t>(v)]));
  }
  if (!plan.crashes.empty() || !plan.omissions.empty() || !plan.links.empty() ||
      !plan.partitions.empty() || !plan.takeovers.empty()) {
    engine.add_fault_injector(sim::make_plan_injector(
        std::move(plan), [&cfg](NodeId node, const std::string& kind) {
          return make_byzantine_process(kind, cfg, node, make_seed(0xBAD, node));
        }));
  }

  AbOutcome out;
  out.report = engine.run();
  out.termination = true;
  out.agreement = true;
  for (NodeId v = 0; v < params.n; ++v) {
    const auto& s = out.report.nodes[static_cast<std::size_t>(v)];
    if (s.byzantine || s.crashed || s.omission) continue;  // faulty nodes are exempt
    if (!s.decided) {
      out.termination = false;
      continue;
    }
    if (out.decision && *out.decision != s.decision) out.agreement = false;
    out.decision = s.decision;
  }
  // The Figure 7 max rule, checkable when every little node is honest.
  bool any_little_faulty = false;
  std::uint64_t max_input = 0;
  for (NodeId v = 0; v < params.little_count; ++v) {
    const auto& s = out.report.nodes[static_cast<std::size_t>(v)];
    if (s.byzantine || s.crashed || s.omission) any_little_faulty = true;
    max_input = std::max(max_input, inputs[static_cast<std::size_t>(v)]);
  }
  if (!any_little_faulty && out.decision) {
    out.max_rule_holds = (*out.decision == max_input);
  }
  return out;
}

}  // namespace lft::byzantine
