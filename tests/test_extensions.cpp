// Tests for the Section 9 extensions: counting and majority consensus built
// from gossip + 2n-instance vectorized consensus.
#include <gtest/gtest.h>

#include <memory>
#include <numeric>
#include <ostream>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "core/extensions.hpp"
#include "sim/adversary.hpp"
#include "test_util.hpp"

namespace lft::core {
namespace {

std::vector<int> inputs_with_ones(NodeId n, NodeId ones, std::uint64_t seed) {
  std::vector<int> inputs(static_cast<std::size_t>(n), 0);
  Rng rng(seed);
  std::vector<NodeId> perm(static_cast<std::size_t>(n));
  for (NodeId v = 0; v < n; ++v) perm[static_cast<std::size_t>(v)] = v;
  rng.shuffle(std::span<NodeId>(perm));
  for (NodeId i = 0; i < ones; ++i) inputs[static_cast<std::size_t>(perm[i])] = 1;
  return inputs;
}

TEST(MajorityConsensus, ExactCountsWithoutCrashes) {
  const NodeId n = 120;
  const auto params = CheckpointParams::practical(n, 10);
  const auto inputs = inputs_with_ones(n, 45, 3);
  const auto outcome = run_majority_consensus(params, inputs, nullptr);
  EXPECT_TRUE(outcome.all_good());
  EXPECT_EQ(outcome.members, 120);
  EXPECT_EQ(outcome.ones, 45);
  EXPECT_EQ(outcome.majority, 0);  // 45 * 2 < 120
}

TEST(MajorityConsensus, MajorityOneWhenOnesDominate) {
  const NodeId n = 100;
  const auto params = CheckpointParams::practical(n, 8);
  const auto inputs = inputs_with_ones(n, 70, 5);
  const auto outcome = run_majority_consensus(params, inputs, nullptr);
  EXPECT_TRUE(outcome.all_good());
  EXPECT_EQ(outcome.majority, 1);
}

TEST(MajorityConsensus, OneNodeCountsItself) {
  const std::vector<int> inputs = {1};
  const auto outcome = run_majority_consensus(CheckpointParams::practical(1, 0), inputs, nullptr);
  EXPECT_TRUE(outcome.all_good());
  EXPECT_EQ(outcome.members, 1);
  EXPECT_EQ(outcome.ones, 1);
  EXPECT_EQ(outcome.majority, 1);
}

struct AggCase {
  NodeId n;
  std::int64_t t;
  NodeId ones;
  std::string adversary;
};

// gtest appends the printed parameter to each case's listed name; without a
// printer it dumps the raw bytes, uninitialised padding included, and the
// name changes from run to run.
void PrintTo(const AggCase& c, std::ostream* os) {
  *os << "n=" << c.n << " t=" << c.t << " ones=" << c.ones << " " << c.adversary;
}

class MajoritySweep : public ::testing::TestWithParam<AggCase> {};

TEST_P(MajoritySweep, AgreementAndSaneCountsUnderCrashes) {
  const auto& c = GetParam();
  const auto params = CheckpointParams::practical(c.n, c.t);
  const auto inputs = inputs_with_ones(c.n, c.ones, 7);
  std::unique_ptr<sim::FaultInjector> adversary;
  if (c.adversary == "burst0") {
    adversary = sim::make_scheduled(sim::burst_crash_schedule(c.n, c.t, 0, 9));
  } else if (c.adversary == "random") {
    adversary =
        sim::make_scheduled(sim::random_crash_schedule(c.n, c.t, 0, 4 * c.t + 20, 0.0, 9));
  }
  const auto outcome = run_majority_consensus(params, inputs, std::move(adversary));
  EXPECT_TRUE(outcome.termination);
  EXPECT_TRUE(outcome.agreement) << "nodes derived different aggregates";
  // The agreed member set includes all non-crashed nodes and at most n.
  const std::int64_t survivors =
      static_cast<std::int64_t>(c.n) - outcome.report.crashed_count();
  EXPECT_GE(outcome.members, survivors);
  EXPECT_LE(outcome.members, static_cast<std::int64_t>(c.n));
  // The agreed ones-count can't exceed the proposers of 1 nor the members.
  EXPECT_LE(outcome.ones, static_cast<std::int64_t>(c.ones));
  EXPECT_LE(outcome.ones, outcome.members);
}

INSTANTIATE_TEST_SUITE_P(
    Grid, MajoritySweep,
    ::testing::Values(AggCase{60, 4, 40, "none"}, AggCase{60, 4, 40, "burst0"},
                      AggCase{100, 12, 30, "random"}, AggCase{100, 12, 80, "burst0"},
                      AggCase{200, 30, 110, "random"}, AggCase{64, 0, 32, "none"}),
    [](const auto& info) {
      const auto& c = info.param;
      return test::case_name("n", c.n, "t", c.t, "_ones", c.ones, "_", c.adversary);
    });

TEST(MajorityConsensus, DeterministicAcrossRuns) {
  const auto params = CheckpointParams::practical(80, 8);
  const auto inputs = inputs_with_ones(80, 50, 11);
  auto adv = [&] {
    return sim::make_scheduled(sim::random_crash_schedule(80, 8, 0, 40, 0.0, 13));
  };
  const auto a = run_majority_consensus(params, inputs, adv());
  const auto b = run_majority_consensus(params, inputs, adv());
  EXPECT_EQ(a.members, b.members);
  EXPECT_EQ(a.ones, b.ones);
  EXPECT_EQ(a.report.metrics.messages_total, b.report.metrics.messages_total);
}

}  // namespace
}  // namespace lft::core
