// Tests for the single-port adaptation (Section 8): the generic stage
// adapter, Linear-Consensus invariants under crash adversaries, the
// Theorem 12 performance shape, and the Theorem 13 lower-bound experiments.
#include <gtest/gtest.h>

#include <memory>
#include <ostream>
#include <string>
#include <vector>

#include "common/math.hpp"
#include "common/rng.hpp"
#include "core/params.hpp"
#include "sim/adversary.hpp"
#include "singleport/linear_consensus.hpp"
#include "singleport/lower_bound.hpp"
#include "test_util.hpp"

namespace lft::singleport {
namespace {

std::vector<int> make_inputs(NodeId n, const std::string& pattern, std::uint64_t seed) {
  std::vector<int> inputs(static_cast<std::size_t>(n), 0);
  if (pattern == "all1") {
    std::fill(inputs.begin(), inputs.end(), 1);
  } else if (pattern == "one1") {
    inputs[static_cast<std::size_t>(n / 2)] = 1;
  } else if (pattern == "random") {
    Rng rng(seed);
    for (auto& b : inputs) b = static_cast<int>(rng.uniform(2));
  }
  return inputs;
}

std::unique_ptr<sim::SpAdversary> sp_adversary(const std::string& kind, NodeId n,
                                               std::int64_t t, Round window,
                                               std::uint64_t seed) {
  if (kind == "none" || t == 0) return nullptr;
  if (kind == "burst0") {
    return std::make_unique<ScheduledSpAdversary>(sim::burst_crash_schedule(n, t, 0, seed));
  }
  if (kind == "random") {
    return std::make_unique<ScheduledSpAdversary>(
        sim::random_crash_schedule(n, t, 0, window, 0.0, seed));
  }
  ADD_FAILURE() << "unknown adversary " << kind;
  return nullptr;
}

struct LinearCase {
  NodeId n;
  std::int64_t t;
  std::string pattern;
  std::string adversary;
};

// gtest appends the printed parameter to each case's listed name; without a
// printer it dumps the raw bytes, uninitialised padding included, and the
// name changes from run to run.
void PrintTo(const LinearCase& c, std::ostream* os) {
  *os << "n=" << c.n << " t=" << c.t << " " << c.pattern << " " << c.adversary;
}

class LinearSweep : public ::testing::TestWithParam<LinearCase> {};

TEST_P(LinearSweep, SolvesConsensusSinglePort) {
  const auto& c = GetParam();
  const auto params = core::ConsensusParams::single_port(c.n, c.t);
  const auto inputs = make_inputs(c.n, c.pattern, 47);
  // Crash window sized to the sp-round expansion of the flooding part.
  const Round window = 40 * std::max<Round>(1, c.t);
  const auto outcome = run_linear_consensus(
      params, inputs, sp_adversary(c.adversary, c.n, c.t, window, 53));
  EXPECT_TRUE(outcome.termination);
  EXPECT_TRUE(outcome.agreement);
  EXPECT_TRUE(outcome.validity);
}

INSTANTIATE_TEST_SUITE_P(
    Grid, LinearSweep,
    ::testing::Values(LinearCase{60, 0, "random", "none"},
                      LinearCase{60, 5, "all0", "burst0"},
                      LinearCase{60, 5, "all1", "random"},
                      LinearCase{100, 12, "random", "burst0"},   // t >= sqrt(n): star kept
                      LinearCase{100, 12, "half", "random"},
                      LinearCase{256, 9, "random", "random"},    // t < sqrt(n): star skipped
                      LinearCase{256, 31, "one1", "burst0"},
                      LinearCase{400, 60, "random", "random"}),
    [](const auto& info) {
      const auto& c = info.param;
      return test::case_name("n", c.n, "t", c.t, "_", c.pattern, "_", c.adversary);
    });

TEST(LinearConsensus, DeterministicAcrossRuns) {
  const auto params = core::ConsensusParams::single_port(100, 10);
  const auto inputs = make_inputs(100, "random", 3);
  const auto a = run_linear_consensus(
      params, inputs,
      std::make_unique<ScheduledSpAdversary>(
          sim::random_crash_schedule(100, 10, 0, 200, 0.0, 5)));
  const auto b = run_linear_consensus(
      params, inputs,
      std::make_unique<ScheduledSpAdversary>(
          sim::random_crash_schedule(100, 10, 0, 200, 0.0, 5)));
  EXPECT_EQ(a.report.rounds, b.report.rounds);
  EXPECT_EQ(a.report.metrics.messages_total, b.report.metrics.messages_total);
  EXPECT_EQ(a.decision, b.decision);
}

TEST(LinearConsensus, SinglePortConstraintRespected) {
  // The engine enforces one send + one poll per node per round by
  // construction; verify the expansion factors: sp rounds >= mp rounds and
  // messages match the multi-port shape (same protocol, same sends).
  const auto params = core::ConsensusParams::single_port(80, 10);
  const auto inputs = make_inputs(80, "random", 11);
  const auto outcome = run_linear_consensus(params, inputs, nullptr);
  EXPECT_TRUE(outcome.all_good());
  // Every message costs its sender one round slot, so messages <= rounds * n.
  EXPECT_LE(outcome.report.metrics.messages_total,
            outcome.report.rounds * static_cast<Round>(80));
}

TEST(LinearConsensus, RoundShapeLinearPlusLog) {
  // Theorem 12: O(t + log n) rounds. With constant-degree overlays each
  // mp-round costs O(1) sp-rounds, so sp-rounds stay within a constant
  // factor of c1*t + c2*log n.
  std::vector<double> ratios;
  for (std::int64_t t : {8, 16, 32, 64}) {
    const NodeId n = static_cast<NodeId>(8 * t);
    const auto params = core::ConsensusParams::single_port(n, t);
    const auto inputs = make_inputs(n, "random", 3);
    const auto outcome = run_linear_consensus(params, inputs, nullptr);
    EXPECT_TRUE(outcome.all_good());
    const double shape = static_cast<double>(t) +
                         static_cast<double>(ceil_log2(static_cast<std::uint64_t>(n)));
    ratios.push_back(static_cast<double>(outcome.report.rounds) / shape);
  }
  const auto [lo, hi] = std::minmax_element(ratios.begin(), ratios.end());
  EXPECT_LT(*hi / *lo, 1.8) << "sp-rounds do not track t + log n";
}

TEST(LinearConsensus, BitsNearLinear) {
  // Theorem 12: O(n + t log n) bits.
  for (NodeId n : {128, 256, 512}) {
    const std::int64_t t = n / 8;
    const auto params = core::ConsensusParams::single_port(n, t);
    const auto inputs = make_inputs(n, "random", 7);
    const auto outcome = run_linear_consensus(params, inputs, nullptr);
    EXPECT_TRUE(outcome.all_good());
    const std::int64_t logn = ceil_log2(static_cast<std::uint64_t>(n));
    const std::int64_t bound =
        4 * (static_cast<std::int64_t>(n) +
             static_cast<std::int64_t>(params.little_count) * params.probe_degree_little *
                 (params.probe_gamma_little + 1) +
             t * logn);
    EXPECT_LE(outcome.report.metrics.bits_total, bound) << "n=" << n;
  }
}

// ---- Theorem 13 ------------------------------------------------------------------

TEST(LowerBound, PortIsolationBuysTOverTwoSilentRounds) {
  const IsolationResult result = run_port_isolation(64, 12, 40);
  EXPECT_GE(result.isolation_rounds, 6);  // >= t/2
  EXPECT_LE(result.crashes_used, 12);
}

TEST(LowerBound, PortIsolationScalesWithBudget) {
  const IsolationResult small = run_port_isolation(64, 4, 40);
  const IsolationResult large = run_port_isolation(64, 12, 40);
  EXPECT_GE(large.isolation_rounds, small.isolation_rounds);
}

TEST(LowerBound, DivergenceGrowsAtMostTriply) {
  const DivergenceResult result = run_divergence_experiment(128, 8);
  ASSERT_FALSE(result.diverged_per_round.empty());
  // |A[0]| <= 1 (only the seed node differs at the start).
  EXPECT_LE(result.diverged_per_round.front(), 1);
  // |A[i]| <= 3^(i+1), and in particular full divergence needs >= log_3 n
  // rounds, which lower-bounds any differing-decision consensus run.
  std::int64_t cap = 3;
  Round full_at = -1;
  for (std::size_t i = 0; i < result.diverged_per_round.size(); ++i) {
    EXPECT_LE(result.diverged_per_round[i], cap) << "round " << i;
    if (cap <= (std::int64_t{1} << 40)) cap *= 3;
    if (full_at < 0 && result.diverged_per_round[i] >= 128) {
      full_at = static_cast<Round>(i);
    }
  }
  EXPECT_TRUE(result.decisions_differ);
  if (full_at >= 0) {
    EXPECT_GE(full_at, 4);  // log_3(128) ~ 4.4
  }
}

TEST(LowerBound, DivergenceMonotone) {
  const DivergenceResult result = run_divergence_experiment(64, 4);
  for (std::size_t i = 1; i < result.diverged_per_round.size(); ++i) {
    EXPECT_GE(result.diverged_per_round[i], result.diverged_per_round[i - 1]);
  }
}

}  // namespace
}  // namespace lft::singleport

// ---- Single-port gossip (Table 1 gossip row, single-port column) -----------------

#include "singleport/gossip_sp.hpp"

namespace lft::singleport {
namespace {

std::vector<std::uint64_t> sp_rumors(NodeId n) {
  std::vector<std::uint64_t> out(static_cast<std::size_t>(n));
  for (NodeId v = 0; v < n; ++v) out[static_cast<std::size_t>(v)] = 500 + v;
  return out;
}

TEST(SinglePortGossip, ConditionsHoldWithoutCrashes) {
  const auto params = core::GossipParams::practical(100, 8);
  const auto outcome = run_single_port_gossip(params, sp_rumors(100), nullptr);
  EXPECT_TRUE(outcome.termination);
  EXPECT_TRUE(outcome.condition1);
  EXPECT_TRUE(outcome.condition2);
  EXPECT_TRUE(outcome.rumors_intact);
  EXPECT_EQ(outcome.report.metrics.fallback_pulls, 0);
}

TEST(SinglePortGossip, ConditionsHoldUnderCrashes) {
  const NodeId n = 150;
  const std::int64_t t = 15;
  const auto params = core::GossipParams::practical(n, t);
  auto adversary = std::make_unique<ScheduledSpAdversary>(
      sim::random_crash_schedule(n, t, 0, 60 * t, 0.0, 19));
  const auto outcome = run_single_port_gossip(params, sp_rumors(n), std::move(adversary));
  EXPECT_TRUE(outcome.termination);
  EXPECT_TRUE(outcome.condition1);
  EXPECT_TRUE(outcome.condition2);
  EXPECT_TRUE(outcome.rumors_intact);
}

TEST(SinglePortGossip, RoundExpansionStaysConstantFactor) {
  // sp-rounds = sum over mp-rounds of (out+in slots): with constant-degree
  // overlays this is a constant factor over the multi-port O(log n log t).
  const NodeId n = 200;
  const std::int64_t t = 20;
  const auto params = core::GossipParams::practical(n, t);
  const auto mp = core::run_gossip(params, sp_rumors(n), nullptr);
  const auto sp = run_single_port_gossip(params, sp_rumors(n), nullptr);
  EXPECT_TRUE(sp.all_good());
  EXPECT_LT(sp.report.rounds, 80 * mp.report.rounds)
      << "slot expansion should be bounded by ~2x the largest overlay degree";
}

}  // namespace
}  // namespace lft::singleport
