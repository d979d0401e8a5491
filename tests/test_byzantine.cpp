// Tests for Section 7: signed relay chains, the certified value set,
// Dolev-Strong acceptance rules, and AB-Consensus under silent,
// equivocating, and flooding Byzantine behaviors.
#include <gtest/gtest.h>

#include <ostream>
#include <string>
#include <utility>
#include <vector>

#include "byzantine/ab_consensus.hpp"
#include "byzantine/acs.hpp"
#include "byzantine/dolev_strong.hpp"
#include "common/math.hpp"
#include "core/tags.hpp"
#include "test_util.hpp"

namespace lft::byzantine {
namespace {

// ---- SignedRelay -----------------------------------------------------------

TEST(SignedRelay, EncodeDecodeRoundTrip) {
  crypto::KeyRegistry registry(10, 1);
  SignedRelay relay;
  relay.origin = 2;
  relay.value = 1;
  relay.chain.push_back(registry.signer_for(2).sign(SignedRelay::payload_digest(2, 1)));
  relay.chain.push_back(registry.signer_for(5).sign(SignedRelay::payload_digest(2, 1)));
  ByteWriter w;
  relay.encode(w);
  ByteReader r(w.bytes());
  const auto decoded = SignedRelay::decode(r, 10, 8);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->origin, 2);
  EXPECT_EQ(decoded->value, 1u);
  ASSERT_EQ(decoded->chain.size(), 2u);
  EXPECT_TRUE(decoded->valid(registry, 10));
}

TEST(SignedRelay, ValidityRejectsForgeries) {
  crypto::KeyRegistry registry(10, 1);
  const auto d = SignedRelay::payload_digest(2, 1);
  SignedRelay relay{2, 1, {registry.signer_for(2).sign(d)}};
  EXPECT_TRUE(relay.valid(registry, 10));

  // First signer must be the origin.
  SignedRelay wrong_first{2, 1, {registry.signer_for(3).sign(d)}};
  EXPECT_FALSE(wrong_first.valid(registry, 10));

  // Duplicate signers rejected.
  SignedRelay dup{2, 1, {registry.signer_for(2).sign(d), registry.signer_for(2).sign(d)}};
  EXPECT_FALSE(dup.valid(registry, 10));

  // Tampered value invalidates the chain.
  SignedRelay tampered = relay;
  tampered.value = 0;
  EXPECT_FALSE(tampered.valid(registry, 10));

  // Signer outside the little group rejected.
  SignedRelay outsider{2, 1, {registry.signer_for(2).sign(d), registry.signer_for(9).sign(d)}};
  EXPECT_FALSE(outsider.valid(registry, 5));
}

// ---- ValueSet / CertifiedSet --------------------------------------------------

TEST(ValueSet, MaxRuleIgnoresNull) {
  ValueSet s(4);
  EXPECT_EQ(s.max_value(), 0u);  // all null
  s.set_value(1, 1);
  s.set_value(2, 0);
  EXPECT_EQ(s.max_value(), 1u);
}

TEST(ValueSet, DigestBindsContent) {
  ValueSet a(3), b(3);
  a.set_value(0, 1);
  EXPECT_NE(a.digest(), b.digest());
}

TEST(CertifiedSet, QuorumVerification) {
  crypto::KeyRegistry registry(10, 2);
  ValueSet values(6);
  values.set_value(0, 1);
  CertifiedSet set{values, {}};
  for (NodeId v = 0; v < 5; ++v) {
    set.quorum.push_back(registry.signer_for(v).sign(values.digest()));
  }
  EXPECT_TRUE(set.valid(registry, 6, 5));
  EXPECT_FALSE(set.valid(registry, 6, 6));

  // Duplicated signatures must not inflate the quorum.
  CertifiedSet dup{values, {}};
  for (int i = 0; i < 5; ++i) {
    dup.quorum.push_back(registry.signer_for(0).sign(values.digest()));
  }
  EXPECT_FALSE(dup.valid(registry, 6, 2));

  // Bogus tags rejected.
  CertifiedSet fake{values, {}};
  for (NodeId v = 0; v < 5; ++v) fake.quorum.push_back(crypto::Signature{v, 12345});
  EXPECT_FALSE(fake.valid(registry, 6, 2));

  // Round trip.
  ByteWriter w;
  set.encode(w);
  ByteReader r(w.bytes());
  const auto decoded = CertifiedSet::decode(r, 6);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_TRUE(decoded->valid(registry, 6, 5));
}

// ---- DsNode --------------------------------------------------------------------

// Messages are POD views: the caller owns the payload bytes and must keep
// them alive while the message is in use.
std::vector<std::byte> relay_bytes(const SignedRelay& relay) {
  ByteWriter w;
  w.put_varint(1);
  relay.encode(w);
  return w.take();
}

sim::Message relay_message(NodeId from, NodeId to, const std::vector<std::byte>& body) {
  sim::Message m;
  m.from = from;
  m.to = to;
  m.tag = core::kTagDsRelay;
  m.set_body(body);
  return m;
}

TEST(DsNode, SourceBroadcastsAndResolves) {
  auto registry = std::make_shared<crypto::KeyRegistry>(4, 7);
  DsNode source(registry, registry->signer_for(0), 4, 1);
  source.set_own_value(1);
  const auto out0 = source.step(0, {});
  EXPECT_FALSE(out0.empty());
  const auto out1 = source.step(1, {});
  EXPECT_TRUE(out1.empty());  // nothing new
  const auto result = source.result();
  EXPECT_EQ(result.value(0), 1u);
  EXPECT_EQ(result.value(1), kNullValue);
}

TEST(DsNode, AcceptsValidChainAndRelays) {
  auto registry = std::make_shared<crypto::KeyRegistry>(4, 7);
  DsNode node(registry, registry->signer_for(1), 4, 1);
  SignedRelay relay{0, 1, {registry->signer_for(0).sign(SignedRelay::payload_digest(0, 1))}};
  const auto body = relay_bytes(relay);
  std::vector<sim::Message> inbox{relay_message(0, 1, body)};
  (void)node.step(0, {});
  const auto out = node.step(1, inbox);
  EXPECT_FALSE(out.empty()) << "must countersign and relay";
  EXPECT_EQ(node.result().value(0), 1u);
}

TEST(DsNode, RejectsShortChainAtLateRound) {
  auto registry = std::make_shared<crypto::KeyRegistry>(4, 7);
  DsNode node(registry, registry->signer_for(1), 4, 2);
  SignedRelay relay{0, 1, {registry->signer_for(0).sign(SignedRelay::payload_digest(0, 1))}};
  const auto body = relay_bytes(relay);
  std::vector<sim::Message> inbox{relay_message(0, 1, body)};
  (void)node.step(0, {});
  (void)node.step(1, {});
  (void)node.step(2, inbox);  // 1 signature < round 2: reject
  EXPECT_EQ(node.result().value(0), kNullValue);
}

TEST(DsNode, EquivocationYieldsNull) {
  auto registry = std::make_shared<crypto::KeyRegistry>(4, 7);
  DsNode node(registry, registry->signer_for(1), 4, 1);
  SignedRelay r0{0, 0, {registry->signer_for(0).sign(SignedRelay::payload_digest(0, 0))}};
  SignedRelay r1{0, 1, {registry->signer_for(0).sign(SignedRelay::payload_digest(0, 1))}};
  const auto b0 = relay_bytes(r0);
  const auto b1 = relay_bytes(r1);
  std::vector<sim::Message> inbox{relay_message(0, 1, b0), relay_message(0, 1, b1)};
  (void)node.step(0, {});
  (void)node.step(1, inbox);
  EXPECT_EQ(node.result().value(0), kNullValue);
}

TEST(DsNode, IgnoresGarbageBodies) {
  auto registry = std::make_shared<crypto::KeyRegistry>(4, 7);
  DsNode node(registry, registry->signer_for(1), 4, 1);
  sim::Message junk;
  junk.from = 2;
  junk.to = 1;
  junk.tag = core::kTagDsRelay;
  const std::vector<std::byte> junk_bytes{std::byte{0xFF}, std::byte{0x03}, std::byte{0x42}};
  junk.set_body(junk_bytes);
  std::vector<sim::Message> inbox{junk};
  (void)node.step(0, {});
  (void)node.step(1, inbox);
  for (NodeId o = 0; o < 4; ++o) EXPECT_EQ(node.result().value(o), kNullValue);
}

// ---- AB-Consensus -----------------------------------------------------------------

struct AbCase {
  NodeId n;
  std::int64_t t;
  std::string behavior;  // behavior of all Byzantine nodes
  int byz_little;        // how many Byzantine among little nodes
  int byz_big;           // how many Byzantine among the rest
};

// gtest appends the printed parameter to each case's listed name; without a
// printer it dumps the raw bytes, uninitialised padding included, and the
// name changes from run to run.
void PrintTo(const AbCase& c, std::ostream* os) {
  *os << "n=" << c.n << " t=" << c.t << " " << c.behavior << " l=" << c.byz_little
      << " b=" << c.byz_big;
}

class AbSweep : public ::testing::TestWithParam<AbCase> {};

TEST_P(AbSweep, HonestNodesAgree) {
  const auto& c = GetParam();
  const auto params = AbParams::practical(c.n, c.t);
  std::vector<std::uint64_t> inputs(static_cast<std::size_t>(c.n));
  for (NodeId v = 0; v < c.n; ++v) inputs[static_cast<std::size_t>(v)] = v % 2;

  std::vector<std::pair<NodeId, std::string>> byz;
  for (int i = 0; i < c.byz_little; ++i) {
    byz.emplace_back(static_cast<NodeId>(2 * i + 1), c.behavior);  // odd little ids
  }
  for (int i = 0; i < c.byz_big; ++i) {
    byz.emplace_back(static_cast<NodeId>(params.little_count + 1 + i), c.behavior);
  }
  ASSERT_LE(static_cast<std::int64_t>(byz.size()), c.t);

  const auto outcome = run_ab_consensus(params, inputs, byz);
  EXPECT_TRUE(outcome.termination);
  EXPECT_TRUE(outcome.agreement);
  ASSERT_TRUE(outcome.decision.has_value());
  EXPECT_LE(*outcome.decision, 1u) << "decision must be a proposed input";
}

INSTANTIATE_TEST_SUITE_P(
    Grid, AbSweep,
    ::testing::Values(AbCase{40, 3, "silent", 3, 0}, AbCase{40, 3, "silent", 0, 3},
                      AbCase{40, 3, "equivocate", 3, 0}, AbCase{40, 3, "flood", 2, 1},
                      AbCase{80, 8, "silent", 4, 4}, AbCase{80, 8, "equivocate", 8, 0},
                      AbCase{80, 8, "flood", 4, 4}, AbCase{120, 20, "flood", 10, 10},
                      AbCase{64, 0, "silent", 0, 0}),
    [](const auto& info) {
      const auto& c = info.param;
      return test::case_name("n", c.n, "t", c.t, "_", c.behavior, "_l", c.byz_little, "b",
                             c.byz_big);
    });

TEST(AbConsensus, MaxRuleWithAllHonest) {
  const auto params = AbParams::practical(50, 4);
  std::vector<std::uint64_t> inputs(50, 0);
  inputs[7] = 1;  // one little node proposes 1
  const auto outcome = run_ab_consensus(params, inputs, {});
  EXPECT_TRUE(outcome.termination);
  EXPECT_TRUE(outcome.agreement);
  EXPECT_TRUE(outcome.max_rule_holds);
  EXPECT_EQ(outcome.decision, 1u);
}

TEST(AbConsensus, AllZeroInputsDecideZero) {
  const auto params = AbParams::practical(50, 4);
  std::vector<std::uint64_t> inputs(50, 0);
  const auto outcome = run_ab_consensus(params, inputs, {});
  EXPECT_TRUE(outcome.termination);
  EXPECT_EQ(outcome.decision, 0u);
}

TEST(AbConsensus, RoundsLinearInT) {
  // Theorem 11: O(t) rounds.
  for (std::int64_t t : {4, 8, 16}) {
    const NodeId n = static_cast<NodeId>(8 * t);
    const auto params = AbParams::practical(n, t);
    std::vector<std::uint64_t> inputs(static_cast<std::size_t>(n), 1);
    const auto outcome = run_ab_consensus(params, inputs, {});
    EXPECT_TRUE(outcome.termination);
    EXPECT_LE(outcome.report.rounds,
              t + 12 * ceil_log2(static_cast<std::uint64_t>(n)) + 20)
        << "t=" << t;
  }
}

TEST(AbConsensus, HonestMessagesQuadraticInTPlusN) {
  // Theorem 11: O(t^2 + n) messages sent by non-faulty nodes.
  for (std::int64_t t : {4, 8, 16}) {
    const NodeId n = static_cast<NodeId>(10 * t);
    const auto params = AbParams::practical(n, t);
    std::vector<std::uint64_t> inputs(static_cast<std::size_t>(n), 1);
    const auto outcome = run_ab_consensus(params, inputs, {});
    EXPECT_TRUE(outcome.termination);
    const std::int64_t bound = 8 * (25 * t * t + static_cast<std::int64_t>(n)) + 200;
    EXPECT_LE(outcome.report.metrics.messages_honest, bound) << "t=" << t;
  }
}

TEST(AbConsensus, ByzantineFloodDoesNotCountAsHonest) {
  const auto params = AbParams::practical(60, 5);
  std::vector<std::uint64_t> inputs(60, 0);
  const auto clean = run_ab_consensus(params, inputs, {});
  const auto flooded = run_ab_consensus(params, inputs, {{1, "flood"}, {30, "flood"}});
  EXPECT_TRUE(flooded.termination);
  EXPECT_TRUE(flooded.agreement);
  EXPECT_GT(flooded.report.metrics.messages_total, flooded.report.metrics.messages_honest);
  // Honest traffic stays within a small factor of the clean run (replies to
  // forged inquiries are rejected, so no honest amplification).
  EXPECT_LE(flooded.report.metrics.messages_honest,
            2 * clean.report.metrics.messages_honest + 500);
}

}  // namespace
}  // namespace lft::byzantine
