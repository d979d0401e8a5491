// Tests for Gossip (Figure 5, Theorem 9) and Checkpointing (Figure 6,
// Theorem 10), including the extant-set substrate and the growing-bitset
// delta codec the combined messages rely on.
#include <gtest/gtest.h>

#include <algorithm>

#include <memory>
#include <ostream>
#include <string>
#include <vector>

#include "common/math.hpp"
#include "common/rng.hpp"
#include "core/checkpointing.hpp"
#include "core/extant.hpp"
#include "core/gossip.hpp"
#include "core/growset.hpp"
#include "sim/adversary.hpp"
#include "test_util.hpp"

namespace lft::core {
namespace {

// ---- ExtantSet ----------------------------------------------------------------

TEST(ExtantSet, AddAndQuery) {
  ExtantSet s(10);
  EXPECT_TRUE(s.add(3, 42));
  EXPECT_FALSE(s.add(3, 99));  // first rumor wins
  EXPECT_TRUE(s.contains(3));
  EXPECT_EQ(s.rumor(3), 42u);
  EXPECT_FALSE(s.contains(4));
  EXPECT_EQ(s.count(), 1u);
}

TEST(ExtantSet, DeltaRoundTrip) {
  ExtantSet a(20), b(20);
  a.add(1, 10);
  a.add(5, 50);
  ByteWriter w1;
  const std::size_t mark = a.encode_delta(0, w1);
  ByteReader r1(w1.bytes());
  EXPECT_TRUE(b.apply(r1));
  EXPECT_TRUE(a == b);

  a.add(7, 70);
  ByteWriter w2;
  a.encode_delta(mark, w2);
  ByteReader r2(w2.bytes());
  bool changed = false;
  EXPECT_TRUE(b.apply(r2, &changed));
  EXPECT_TRUE(changed);
  EXPECT_TRUE(a == b);
}

TEST(ExtantSet, ApplyRejectsMalformed) {
  ExtantSet s(4);
  ByteWriter w;
  w.put_varint(1);
  w.put_varint(9);  // id out of range
  w.put_u64(0);
  ByteReader r(w.bytes());
  EXPECT_FALSE(s.apply(r));
}

TEST(ExtantSet, DigestSensitiveToContent) {
  ExtantSet a(8), b(8);
  a.add(1, 5);
  b.add(1, 6);
  EXPECT_NE(a.digest(), b.digest());
  ExtantSet c(8);
  c.add(1, 5);
  EXPECT_EQ(a.digest(), c.digest());
}

// ---- GrowingBitset --------------------------------------------------------------

TEST(GrowingBitset, DeltaRoundTrip) {
  GrowingBitset a(100), b(100);
  a.add(3);
  a.add(97);
  ByteWriter w;
  const auto mark = a.encode_delta(0, w);
  ByteReader r(w.bytes());
  EXPECT_TRUE(b.apply(r));
  EXPECT_EQ(a.digest(), b.digest());
  a.add(50);
  ByteWriter w2;
  a.encode_delta(mark, w2);
  ByteReader r2(w2.bytes());
  EXPECT_TRUE(b.apply(r2));
  EXPECT_EQ(b.count(), 3u);
}

TEST(GrowingBitset, MergeBitset) {
  GrowingBitset g(10);
  DynamicBitset d(10);
  d.set(2);
  d.set(9);
  EXPECT_TRUE(g.merge(d));
  EXPECT_FALSE(g.merge(d));
  EXPECT_EQ(g.count(), 2u);
}

// ---- Gossip ------------------------------------------------------------------------

struct GossipCase {
  NodeId n;
  std::int64_t t;
  std::string adversary;
};

// gtest appends the printed parameter to each case's listed name; without a
// printer it dumps the raw bytes, uninitialised padding included, and the
// name changes from run to run.
void PrintTo(const GossipCase& c, std::ostream* os) {
  *os << "n=" << c.n << " t=" << c.t << " " << c.adversary;
}

std::unique_ptr<sim::FaultInjector> gossip_adversary(const std::string& kind, NodeId n,
                                                      std::int64_t t, std::uint64_t seed) {
  if (kind == "none" || t == 0) return nullptr;
  if (kind == "burst0") return sim::make_scheduled(sim::burst_crash_schedule(n, t, 0, seed));
  if (kind == "random") {
    return sim::make_scheduled(sim::random_crash_schedule(n, t, 0, 4 * t + 20, 0.0, seed));
  }
  if (kind == "partial") {
    return sim::make_scheduled(sim::random_crash_schedule(n, t, 0, 4 * t + 20, 0.6, seed));
  }
  if (kind == "late") {
    return sim::make_scheduled(sim::random_crash_schedule(n, t, 30, 90, 0.0, seed));
  }
  ADD_FAILURE() << "unknown adversary " << kind;
  return nullptr;
}

std::vector<std::uint64_t> make_rumors(NodeId n) {
  std::vector<std::uint64_t> rumors(static_cast<std::size_t>(n));
  for (NodeId v = 0; v < n; ++v) {
    rumors[static_cast<std::size_t>(v)] = 1000 + static_cast<std::uint64_t>(v) * 17;
  }
  return rumors;
}

class GossipSweep : public ::testing::TestWithParam<GossipCase> {};

TEST_P(GossipSweep, ConditionsHold) {
  const auto& c = GetParam();
  const auto params = GossipParams::practical(c.n, c.t);
  const auto rumors = make_rumors(c.n);
  const auto outcome =
      run_gossip(params, rumors, gossip_adversary(c.adversary, c.n, c.t, 91));
  EXPECT_TRUE(outcome.termination);
  EXPECT_TRUE(outcome.condition1);
  EXPECT_TRUE(outcome.condition2);
  EXPECT_TRUE(outcome.rumors_intact);
}

INSTANTIATE_TEST_SUITE_P(
    Grid, GossipSweep,
    ::testing::Values(GossipCase{60, 4, "none"}, GossipCase{60, 4, "burst0"},
                      GossipCase{100, 12, "random"}, GossipCase{100, 12, "partial"},
                      GossipCase{200, 30, "random"}, GossipCase{200, 30, "late"},
                      GossipCase{300, 50, "burst0"}, GossipCase{64, 0, "none"}),
    [](const auto& info) {
      const auto& c = info.param;
      return test::case_name("n", c.n, "t", c.t, "_", c.adversary);
    });

TEST(Gossip, RoundsPolylog) {
  // Theorem 9: O(log n log t) rounds.
  for (NodeId n : {128, 256, 512}) {
    const std::int64_t t = n / 8;
    const auto params = GossipParams::practical(n, t);
    const auto outcome = run_gossip(params, make_rumors(n), nullptr);
    EXPECT_TRUE(outcome.all_good());
    const auto logn = ceil_log2(static_cast<std::uint64_t>(n));
    const auto logt = ceil_log2(static_cast<std::uint64_t>(5 * t));
    EXPECT_LE(outcome.report.rounds, 2 * logn * (logt + 5) + 10) << "n=" << n;
  }
}

TEST(Gossip, MessageShapeNPlusTLogNLogT) {
  // Theorem 9: O(n + t log n log t) messages. Check a structural bound
  // (2 parts x log n phases x little x degree x probe rounds) and that the
  // ratio to the theoretical shape stays flat as n doubles.
  std::vector<double> ratios;
  for (NodeId n : {256, 512, 1024}) {
    const std::int64_t t = n / 10;
    const auto params = GossipParams::practical(n, t);
    const auto outcome = run_gossip(params, make_rumors(n), nullptr);
    EXPECT_TRUE(outcome.all_good());
    const auto logn = static_cast<std::int64_t>(ceil_log2(static_cast<std::uint64_t>(n)));
    const std::int64_t shape =
        static_cast<std::int64_t>(n) + 2 * static_cast<std::int64_t>(params.little_count) *
                                           params.probe_degree * logn *
                                           (params.probe_gamma + 1);
    EXPECT_LE(outcome.report.metrics.messages_total, 2 * shape) << "n=" << n;
    ratios.push_back(static_cast<double>(outcome.report.metrics.messages_total) /
                     static_cast<double>(shape));
  }
  const auto [lo, hi] = std::minmax_element(ratios.begin(), ratios.end());
  EXPECT_LT(*hi / *lo, 1.5) << "messages do not track n + t log n log t";
}

TEST(Gossip, FallbackStaysDormant) {
  const auto params = GossipParams::practical(200, 20);
  const auto outcome = run_gossip(params, make_rumors(200),
                                  gossip_adversary("random", 200, 20, 5));
  EXPECT_TRUE(outcome.all_good());
  EXPECT_EQ(outcome.report.metrics.fallback_pulls, 0);
}

TEST(Gossip, DeterministicAcrossRuns) {
  const auto params = GossipParams::practical(128, 10);
  const auto a = run_gossip(params, make_rumors(128), gossip_adversary("random", 128, 10, 7));
  const auto b = run_gossip(params, make_rumors(128), gossip_adversary("random", 128, 10, 7));
  EXPECT_EQ(a.report.rounds, b.report.rounds);
  EXPECT_EQ(a.report.metrics.messages_total, b.report.metrics.messages_total);
  EXPECT_EQ(a.report.metrics.bits_total, b.report.metrics.bits_total);
}

TEST(Gossip, OneNodeCompletesTrivially) {
  // n = 1: every phase overlay and little G is the one-vertex complete graph.
  const auto outcome = run_gossip(GossipParams::practical(1, 0), make_rumors(1), nullptr);
  EXPECT_TRUE(outcome.all_good());
  EXPECT_EQ(outcome.report.metrics.messages_total, 0);
}

// ---- Checkpointing --------------------------------------------------------------------

class CheckpointSweep : public ::testing::TestWithParam<GossipCase> {};

TEST_P(CheckpointSweep, ConditionsHold) {
  const auto& c = GetParam();
  const auto params = CheckpointParams::practical(c.n, c.t);
  const auto outcome =
      run_checkpointing(params, gossip_adversary(c.adversary, c.n, c.t, 103));
  EXPECT_TRUE(outcome.termination);
  EXPECT_TRUE(outcome.condition1) << "crashed-silent node appears in a decided set";
  EXPECT_TRUE(outcome.condition2) << "operational node missing from a decided set";
  EXPECT_TRUE(outcome.condition3) << "decided extant sets differ";
}

INSTANTIATE_TEST_SUITE_P(
    Grid, CheckpointSweep,
    ::testing::Values(GossipCase{60, 4, "none"}, GossipCase{60, 4, "burst0"},
                      GossipCase{100, 12, "random"}, GossipCase{100, 12, "partial"},
                      GossipCase{200, 30, "random"}, GossipCase{200, 30, "late"},
                      GossipCase{64, 0, "none"}),
    [](const auto& info) {
      const auto& c = info.param;
      return test::case_name("n", c.n, "t", c.t, "_", c.adversary);
    });

TEST(Checkpointing, OneNodeCompletesTrivially) {
  const auto outcome = run_checkpointing(CheckpointParams::practical(1, 0), nullptr);
  EXPECT_TRUE(outcome.all_good());
  EXPECT_EQ(outcome.report.metrics.messages_total, 0);
}

TEST(Checkpointing, RoundsLinearPlusPolylog) {
  // Theorem 10: O(t + log n log t) rounds.
  for (NodeId n : {128, 256}) {
    const std::int64_t t = n / 8;
    const auto params = CheckpointParams::practical(n, t);
    const auto outcome = run_checkpointing(params, nullptr);
    EXPECT_TRUE(outcome.all_good());
    const auto logn = ceil_log2(static_cast<std::uint64_t>(n));
    const auto logt = ceil_log2(static_cast<std::uint64_t>(5 * t));
    EXPECT_LE(outcome.report.rounds,
              5 * t + 2 * logn * (logt + 5) + 14 * logn + 40)
        << "n=" << n;
  }
}

}  // namespace
}  // namespace lft::core
