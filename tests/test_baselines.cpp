// Tests for the classical baselines: correctness under the same adversary
// suite as the paper's algorithms, plus the complexity shapes Table 1
// attributes to prior work (which the benches compare against).
#include <gtest/gtest.h>

#include <memory>
#include <ostream>
#include <string>
#include <vector>

#include "baselines/baselines.hpp"
#include "common/rng.hpp"
#include "sim/adversary.hpp"
#include "test_util.hpp"

namespace lft::baselines {
namespace {

std::vector<int> random_inputs(NodeId n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<int> inputs(static_cast<std::size_t>(n));
  for (auto& b : inputs) b = static_cast<int>(rng.uniform(2));
  return inputs;
}

std::unique_ptr<sim::FaultInjector> crash(const std::string& kind, NodeId n, std::int64_t t,
                                           std::uint64_t seed) {
  if (kind == "none" || t == 0) return nullptr;
  if (kind == "burst0") return sim::make_scheduled(sim::burst_crash_schedule(n, t, 0, seed));
  if (kind == "random") {
    return sim::make_scheduled(sim::random_crash_schedule(n, t, 0, t + 2, 0.0, seed));
  }
  if (kind == "partial") {
    return sim::make_scheduled(sim::random_crash_schedule(n, t, 0, t + 2, 0.5, seed));
  }
  ADD_FAILURE() << "unknown adversary " << kind;
  return nullptr;
}

// ---- FloodSet ----------------------------------------------------------------

struct BaselineCase {
  NodeId n;
  std::int64_t t;
  std::string adversary;
};

// gtest appends the printed parameter to each case's listed name; without a
// printer it dumps the raw bytes, uninitialised padding included, and the
// name changes from run to run.
void PrintTo(const BaselineCase& c, std::ostream* os) {
  *os << "n=" << c.n << " t=" << c.t << " " << c.adversary;
}

class FloodSetSweep : public ::testing::TestWithParam<BaselineCase> {};

TEST_P(FloodSetSweep, SolvesConsensus) {
  const auto& c = GetParam();
  const auto inputs = random_inputs(c.n, 3);
  const auto outcome = run_floodset(c.n, c.t, inputs, crash(c.adversary, c.n, c.t, 17));
  EXPECT_TRUE(outcome.termination);
  EXPECT_TRUE(outcome.agreement);
  EXPECT_TRUE(outcome.validity);
}

INSTANTIATE_TEST_SUITE_P(
    Grid, FloodSetSweep,
    ::testing::Values(BaselineCase{20, 0, "none"}, BaselineCase{20, 5, "burst0"},
                      BaselineCase{40, 10, "random"}, BaselineCase{40, 10, "partial"},
                      BaselineCase{60, 20, "random"}),
    [](const auto& info) {
      const auto& c = info.param;
      return test::case_name("n", c.n, "t", c.t, "_", c.adversary);
    });

TEST(FloodSet, QuadraticMessages) {
  const NodeId n = 40;
  const std::int64_t t = 10;
  const auto outcome = run_floodset(n, t, random_inputs(n, 1), nullptr);
  // (t+1) full exchanges of n(n-1) messages each.
  EXPECT_GE(outcome.report.metrics.messages_total, (t + 1) * n * (n - 1));
  EXPECT_EQ(outcome.report.rounds, t + 2);
}

// ---- Rotating coordinator -------------------------------------------------------

class CoordinatorSweep : public ::testing::TestWithParam<BaselineCase> {};

TEST_P(CoordinatorSweep, SolvesConsensus) {
  const auto& c = GetParam();
  const auto inputs = random_inputs(c.n, 5);
  const auto outcome =
      run_rotating_coordinator(c.n, c.t, inputs, crash(c.adversary, c.n, c.t, 29));
  EXPECT_TRUE(outcome.termination);
  EXPECT_TRUE(outcome.agreement);
  EXPECT_TRUE(outcome.validity);
}

INSTANTIATE_TEST_SUITE_P(
    Grid, CoordinatorSweep,
    ::testing::Values(BaselineCase{20, 0, "none"}, BaselineCase{50, 10, "burst0"},
                      BaselineCase{50, 10, "random"}, BaselineCase{50, 10, "partial"},
                      BaselineCase{100, 30, "random"}),
    [](const auto& info) {
      const auto& c = info.param;
      return test::case_name("n", c.n, "t", c.t, "_", c.adversary);
    });

TEST(RotatingCoordinator, LinearTimesNMessages) {
  const NodeId n = 64;
  const std::int64_t t = 16;
  const auto outcome = run_rotating_coordinator(n, t, random_inputs(n, 2), nullptr);
  EXPECT_LE(outcome.report.metrics.messages_total, (t + 1) * (n - 1));
  EXPECT_EQ(outcome.report.rounds, t + 2);
}

// ---- All-to-all gossip --------------------------------------------------------------

TEST(AllToAllGossip, ConditionsHoldUnderCrashes) {
  for (const char* kind : {"none", "burst0", "random"}) {
    const auto outcome = run_all_to_all_gossip(80, 16, crash(kind, 80, 16, 7));
    EXPECT_TRUE(outcome.condition1) << kind;
    EXPECT_TRUE(outcome.condition2) << kind;
    EXPECT_TRUE(outcome.report.completed);
  }
}

TEST(AllToAllGossip, QuadraticMessagesConstantRounds) {
  const auto outcome = run_all_to_all_gossip(100, 0, nullptr);
  EXPECT_EQ(outcome.report.metrics.messages_total, 100 * 99);
  EXPECT_EQ(outcome.report.rounds, 2);
}

// ---- Naive checkpointing --------------------------------------------------------------

TEST(NaiveCheckpointing, AllThreeConditionsUnderCrashes) {
  for (const char* kind : {"none", "burst0", "random", "partial"}) {
    const auto outcome = run_naive_checkpointing(60, 12, crash(kind, 60, 12, 13));
    EXPECT_TRUE(outcome.all_good()) << kind;
  }
}

TEST(NaiveCheckpointing, LinearTimesNMessages) {
  const NodeId n = 64;
  const std::int64_t t = 16;
  const auto outcome = run_naive_checkpointing(n, t, nullptr);
  EXPECT_TRUE(outcome.all_good());
  // n^2 presence + (t+1) coordinator broadcasts of n-1 sets.
  EXPECT_LE(outcome.report.metrics.messages_total,
            static_cast<std::int64_t>(n) * n + (t + 1) * n);
  EXPECT_EQ(outcome.report.rounds, t + 3);
}

// ---- Full Dolev-Strong -------------------------------------------------------------------

TEST(FullDolevStrong, AgreesWithAllHonest) {
  std::vector<std::uint64_t> inputs(30, 0);
  inputs[7] = 1;
  const auto outcome = run_full_dolev_strong(30, 5, inputs, {});
  EXPECT_TRUE(outcome.termination);
  EXPECT_TRUE(outcome.agreement);
  EXPECT_EQ(outcome.decision, 1u);
}

TEST(FullDolevStrong, ToleratesByzantineMinority) {
  std::vector<std::uint64_t> inputs(30, 1);
  const auto outcome = run_full_dolev_strong(
      30, 5, inputs, {{1, "silent"}, {2, "equivocate"}, {3, "flood"}});
  EXPECT_TRUE(outcome.termination);
  EXPECT_TRUE(outcome.agreement);
}

TEST(FullDolevStrong, QuadraticHonestMessages) {
  std::vector<std::uint64_t> inputs(40, 1);
  const auto outcome = run_full_dolev_strong(40, 4, inputs, {});
  // Every node broadcasts at least its own instance once: Theta(n^2).
  EXPECT_GE(outcome.report.metrics.messages_honest, 40 * 39);
}

}  // namespace
}  // namespace lft::baselines
