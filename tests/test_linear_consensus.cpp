// Tests for the single-port adaptation (Section 8): the generic stage
// adapter, Linear-Consensus invariants under crash adversaries, the
// Theorem 12 performance shape, and the Theorem 13 lower-bound experiments.
#include <gtest/gtest.h>

#include <memory>
#include <optional>
#include <ostream>
#include <string>
#include <utility>
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

std::unique_ptr<sim::FaultInjector> sp_adversary(const std::string& kind, NodeId n,
                                                 std::int64_t t, Round window,
                                                 std::uint64_t seed) {
  if (kind == "none" || t == 0) return nullptr;
  if (kind == "burst0") return sim::make_scheduled(sim::burst_crash_schedule(n, t, 0, seed));
  if (kind == "random") {
    return sim::make_scheduled(sim::random_crash_schedule(n, t, 0, window, 0.0, seed));
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
      params, inputs, sim::make_scheduled(sim::random_crash_schedule(100, 10, 0, 200, 0.0, 5)));
  const auto b = run_linear_consensus(
      params, inputs, sim::make_scheduled(sim::random_crash_schedule(100, 10, 0, 200, 0.0, 5)));
  EXPECT_EQ(a.report.rounds, b.report.rounds);
  EXPECT_EQ(a.report.metrics.messages_total, b.report.metrics.messages_total);
  EXPECT_EQ(a.decision, b.decision);
}

TEST(LinearConsensus, OneNodeDecidesItsInput) {
  const std::vector<int> inputs = {1};
  const auto outcome =
      run_linear_consensus(core::ConsensusParams::single_port(1, 0), inputs, nullptr);
  EXPECT_TRUE(outcome.all_good());
  EXPECT_EQ(outcome.decision, std::optional<std::uint64_t>{1});
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
  auto adversary = sim::make_scheduled(sim::random_crash_schedule(n, t, 0, 60 * t, 0.0, 19));
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

// ---- Pinned single-port Reports --------------------------------------------------

namespace lft::singleport {
namespace {

// Reference values for the single-port model's semantics: when a poll sees a
// message, that a halting node's send is dropped unaccounted, how crashed
// senders and dead receivers are charged, and which sends count as honest.
struct SpPin {
  Round rounds;
  bool completed;
  std::int64_t messages_total;
  std::int64_t bits_total;
  std::int64_t messages_honest;
  std::int64_t bits_honest;
  std::int64_t max_sends_per_node;
  std::int64_t peak_round_messages;
  std::int64_t fallback_pulls;
  std::int64_t crashed;
  std::optional<std::uint64_t> decision;
};

void expect_pinned(const sim::Report& r, const SpPin& pin) {
  EXPECT_EQ(r.rounds, pin.rounds);
  EXPECT_EQ(r.completed, pin.completed);
  EXPECT_EQ(r.metrics.messages_total, pin.messages_total);
  EXPECT_EQ(r.metrics.bits_total, pin.bits_total);
  EXPECT_EQ(r.metrics.messages_honest, pin.messages_honest);
  EXPECT_EQ(r.metrics.bits_honest, pin.bits_honest);
  EXPECT_EQ(r.metrics.max_sends_per_node, pin.max_sends_per_node);
  EXPECT_EQ(r.metrics.peak_round_messages, pin.peak_round_messages);
  EXPECT_EQ(r.metrics.fallback_pulls, pin.fallback_pulls);
  EXPECT_EQ(r.crashed_count(), pin.crashed);
  EXPECT_EQ(r.agreed_value(), pin.decision);
}

TEST(SinglePortPins, ReportsMatchReferenceValues) {
  // Linear-Consensus on both sides of t = sqrt(n), under random crashes.
  const std::vector<std::pair<std::pair<NodeId, std::int64_t>, SpPin>> linear = {
      {{100, 12}, {3311, true, 8695, 8695, 8695, 8695, 157, 79, 0, 12, 1}},
      {{256, 9}, {2755, true, 9184, 9184, 9184, 9184, 156, 180, 0, 9, 1}},
  };
  for (const auto& [nt, pin] : linear) {
    const auto [n, t] = nt;
    SCOPED_TRACE(test::case_name("linear n", n, " t", t));
    const auto outcome = run_linear_consensus(
        core::ConsensusParams::single_port(n, t), make_inputs(n, "random", 47),
        sim::make_scheduled(sim::random_crash_schedule(n, t, 0, 40 * t, 0.0, 53)));
    EXPECT_TRUE(outcome.all_good());
    expect_pinned(outcome.report, pin);
  }

  {
    SCOPED_TRACE("gossip n150 t15");
    const auto outcome = run_single_port_gossip(
        core::GossipParams::practical(150, 15), sp_rumors(150),
        sim::make_scheduled(sim::random_crash_schedule(150, 15, 0, 60 * 15, 0.0, 19)));
    EXPECT_TRUE(outcome.all_good());
    expect_pinned(outcome.report, {12202, true, 162439, 30791916, 162439, 30791916, 2365, 149, 0,
                                   15, 6931334996739848386ULL});
  }

  {
    SCOPED_TRACE("marked Byzantine sender");
    sim::Engine engine(3, {});
    auto sender = [](NodeId to) {
      return test::sp_lambda([to](SpContext& ctx, const std::optional<sim::Message>&) {
        SpAction a;
        if (ctx.round() >= 4) {
          ctx.halt();
          return a;
        }
        a.send = SpSend{to, 0, 1, 8, {}};
        return a;
      });
    };
    engine.set_process(0, sender(2));
    engine.set_process(1, sender(2));
    engine.set_process(2, test::sp_lambda([](SpContext& ctx, const std::optional<sim::Message>&) {
                         if (ctx.round() >= 5) ctx.halt();
                         SpAction a;
                         a.poll = ctx.round() % 2 == 0 ? 0 : 1;
                         return a;
                       }));
    engine.mark_byzantine(1);
    expect_pinned(engine.run(), {6, true, 8, 64, 4, 32, 4, 2, 0, 0, std::nullopt});
  }

  {
    SCOPED_TRACE("port isolation");
    const IsolationResult iso = run_port_isolation(64, 12, 63);
    EXPECT_EQ(iso.isolation_rounds, 2204);
    EXPECT_EQ(iso.baseline_receipt, 2179);
    EXPECT_EQ(iso.crashes_used, 12);
    EXPECT_FALSE(iso.victim_starved);
    EXPECT_EQ(iso.protocol_rounds, 3263);
  }
}

}  // namespace
}  // namespace lft::singleport
