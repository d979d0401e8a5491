// Protocol tests for the crash-model algorithms (Sections 4.1-4.4):
// Almost-Everywhere-Agreement, Spread-Common-Value, Few-Crashes-Consensus
// and Many-Crashes-Consensus. Parameterized sweeps check the consensus
// invariants (agreement, validity, termination) across sizes, input
// patterns, and adversary strategies, plus the performance shapes the
// theorems claim (round counts, message counts, zero fallback activations).
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <optional>
#include <ostream>
#include <string>
#include <thread>
#include <vector>

#include "common/hash.hpp"
#include "common/math.hpp"
#include "common/rng.hpp"
#include "core/consensus.hpp"
#include "core/params.hpp"
#include "core/stages.hpp"
#include "graph/overlay.hpp"
#include "scenarios/scenarios.hpp"
#include "sim/adversary.hpp"
#include "test_util.hpp"

namespace lft::core {
namespace {

using sim::FaultInjector;

std::vector<int> make_inputs(NodeId n, const std::string& pattern, std::uint64_t seed) {
  std::vector<int> inputs(static_cast<std::size_t>(n), 0);
  if (pattern == "all0") return inputs;
  if (pattern == "all1") {
    std::fill(inputs.begin(), inputs.end(), 1);
  } else if (pattern == "half") {
    for (NodeId v = 0; v < n; v += 2) inputs[static_cast<std::size_t>(v)] = 1;
  } else if (pattern == "one1") {
    inputs[static_cast<std::size_t>(n / 2)] = 1;
  } else if (pattern == "random") {
    Rng rng(seed);
    for (auto& b : inputs) b = static_cast<int>(rng.uniform(2));
  }
  return inputs;
}

std::unique_ptr<FaultInjector> make_adversary(const std::string& kind, NodeId n,
                                               std::int64_t t, std::uint64_t seed) {
  if (kind == "none" || t == 0) return nullptr;
  if (kind == "burst0") return sim::make_scheduled(sim::burst_crash_schedule(n, t, 0, seed));
  if (kind == "random") {
    return sim::make_scheduled(sim::random_crash_schedule(n, t, 0, 5 * t + 10, 0.0, seed));
  }
  if (kind == "partial") {
    return sim::make_scheduled(sim::random_crash_schedule(n, t, 0, 5 * t + 10, 0.5, seed));
  }
  if (kind == "staggered") {
    return sim::make_scheduled(sim::staggered_crash_schedule(n, t, 1, 3, seed));
  }
  if (kind == "disruptor") {
    return std::make_unique<sim::ProbeDisruptorAdversary>(t, 1, 0);
  }
  ADD_FAILURE() << "unknown adversary kind " << kind;
  return nullptr;
}

// ---- AEA (Theorem 5) ----------------------------------------------------------

struct AeaCase {
  NodeId n;
  std::int64_t t;
  std::string pattern;
  std::string adversary;
};

// gtest appends the printed parameter to each case's listed name; without a
// printer it dumps the raw bytes, uninitialised padding included, and the
// name changes from run to run.
void PrintTo(const AeaCase& c, std::ostream* os) {
  *os << "n=" << c.n << " t=" << c.t << " " << c.pattern << " " << c.adversary;
}

class AeaSweep : public ::testing::TestWithParam<AeaCase> {};

TEST_P(AeaSweep, ThreeFifthsDecideWithAgreementAndValidity) {
  const auto& c = GetParam();
  const auto params = ConsensusParams::practical(c.n, c.t);
  const auto inputs = make_inputs(c.n, c.pattern, 11);
  const auto outcome =
      run_aea(params, inputs, make_adversary(c.adversary, c.n, c.t, 77));
  EXPECT_TRUE(outcome.report.completed);
  EXPECT_GE(outcome.decided_or_crashed * 5, static_cast<std::int64_t>(c.n) * 3)
      << "fewer than 3/5 n decided-or-crashed";
  EXPECT_TRUE(outcome.agreement);
  EXPECT_TRUE(outcome.validity);
}

INSTANTIATE_TEST_SUITE_P(
    Sizes, AeaSweep,
    ::testing::Values(AeaCase{100, 10, "random", "none"}, AeaCase{100, 10, "all0", "burst0"},
                      AeaCase{100, 10, "all1", "burst0"}, AeaCase{100, 10, "half", "random"},
                      AeaCase{250, 30, "random", "random"},
                      AeaCase{250, 30, "one1", "staggered"},
                      AeaCase{250, 30, "random", "partial"},
                      AeaCase{512, 64, "random", "disruptor"}, AeaCase{60, 2, "half", "random"},
                      AeaCase{50, 0, "random", "none"}),
    [](const auto& info) {
      const auto& c = info.param;
      return test::case_name("n", c.n, "t", c.t, "_", c.pattern, "_", c.adversary);
    });

TEST(Aea, RoundsLinearInT) {
  // Theorem 5: O(t) rounds. Our schedule is (5t-1) + (gamma+1) + 2 rounds.
  for (std::int64_t t : {5, 10, 20, 40}) {
    const NodeId n = static_cast<NodeId>(8 * t);
    const auto params = ConsensusParams::practical(n, t);
    const auto inputs = make_inputs(n, "random", 3);
    const auto outcome = run_aea(params, inputs, nullptr);
    const Round expected =
        params.flood_rounds_little + (params.probe_gamma_little + 1) + 2;
    EXPECT_EQ(outcome.report.rounds, expected) << "t=" << t;
    EXPECT_LE(outcome.report.rounds, 6 * t + 20);
  }
}

TEST(Aea, MessageBoundNPlusTLogT) {
  // Theorem 5's accounting: O(1) messages per little node in Part 1,
  // O(log t) per little node in Part 2 (probing), n in Part 3 — so the
  // total is O(n + t log t), which is O(n) in the optimality range.
  for (NodeId n : {200, 400, 800}) {
    const std::int64_t t = n / 10;
    const auto params = ConsensusParams::practical(n, t);
    const auto inputs = make_inputs(n, "random", 9);
    const auto outcome = run_aea(params, inputs, nullptr);
    const std::int64_t bound =
        2 * (static_cast<std::int64_t>(n) +
             static_cast<std::int64_t>(params.little_count) * params.probe_degree_little *
                 (params.probe_gamma_little + 1));
    EXPECT_LE(outcome.report.metrics.messages_total, bound) << "n=" << n;
    EXPECT_EQ(outcome.report.metrics.bits_total, outcome.report.metrics.messages_total)
        << "AEA messages must carry exactly one bit";
  }
}

TEST(Aea, MessagesLinearInNWithinOptimalityRange) {
  // Table 1 row 2: total O(n) when t = O(n / log n).
  for (NodeId n : {512, 1024, 2048}) {
    const std::int64_t t =
        std::max<std::int64_t>(1, n / (8 * ceil_log2(static_cast<std::uint64_t>(n))));
    const auto params = ConsensusParams::practical(n, t);
    const auto inputs = make_inputs(n, "random", 9);
    const auto outcome = run_aea(params, inputs, nullptr);
    EXPECT_LE(outcome.report.metrics.messages_total, 40 * static_cast<std::int64_t>(n))
        << "n=" << n << " t=" << t;
  }
}

// ---- SCV (Theorem 6) -------------------------------------------------------------

struct ScvCase {
  NodeId n;
  std::int64_t t;
  std::string adversary;
};

void PrintTo(const ScvCase& c, std::ostream* os) {
  *os << "n=" << c.n << " t=" << c.t << " " << c.adversary;
}

class ScvSweep : public ::testing::TestWithParam<ScvCase> {};

TEST_P(ScvSweep, EveryNonFaultyNodeLearnsTheCommonValue) {
  const auto& c = GetParam();
  const auto params = ConsensusParams::practical(c.n, c.t);
  // Initialize exactly ceil(3/5 n) nodes (spread around) with value 7.
  std::vector<std::optional<std::uint64_t>> initials(static_cast<std::size_t>(c.n));
  Rng rng(41);
  std::vector<NodeId> perm(static_cast<std::size_t>(c.n));
  for (NodeId v = 0; v < c.n; ++v) perm[static_cast<std::size_t>(v)] = v;
  rng.shuffle(std::span<NodeId>(perm));
  const NodeId seeded = static_cast<NodeId>((3 * c.n + 4) / 5);
  for (NodeId i = 0; i < seeded; ++i) {
    initials[static_cast<std::size_t>(perm[static_cast<std::size_t>(i)])] = 7;
  }
  const auto outcome =
      run_scv(params, initials, make_adversary(c.adversary, c.n, c.t, 17));
  EXPECT_TRUE(outcome.all_decided_common);
  EXPECT_EQ(outcome.report.metrics.fallback_pulls, 0);
}

INSTANTIATE_TEST_SUITE_P(
    Branches, ScvSweep,
    ::testing::Values(ScvCase{200, 5, "none"},      // t^2 <= n: all-littles pull
                      ScvCase{200, 5, "burst0"},    //
                      ScvCase{200, 14, "random"},   // t^2 <= n boundary
                      ScvCase{300, 30, "none"},     // t^2 > n: inquiry phases
                      ScvCase{300, 30, "burst0"},   //
                      ScvCase{300, 55, "random"},   //
                      ScvCase{512, 100, "partial"}, //
                      ScvCase{512, 100, "disruptor"}),
    [](const auto& info) {
      const auto& c = info.param;
      return test::case_name("n", c.n, "t", c.t, "_", c.adversary);
    });

TEST(Scv, RoundsLogarithmicInT) {
  // Theorem 6: O(log t) rounds.
  for (std::int64_t t : {16, 64, 256}) {
    const NodeId n = static_cast<NodeId>(6 * t);
    const auto params = ConsensusParams::practical(n, t);
    std::vector<std::optional<std::uint64_t>> initials(static_cast<std::size_t>(n));
    for (NodeId v = 0; v < (3 * n + 4) / 5; ++v) initials[static_cast<std::size_t>(v)] = 1;
    const auto outcome = run_scv(params, initials, nullptr);
    EXPECT_TRUE(outcome.all_decided_common);
    EXPECT_LE(outcome.report.rounds, 14 * ceil_log2(static_cast<std::uint64_t>(t)) + 20)
        << "t=" << t;
  }
}

// ---- Few-Crashes-Consensus (Theorem 7) ----------------------------------------------

struct ConsensusCase {
  NodeId n;
  std::int64_t t;
  std::string pattern;
  std::string adversary;
};

void PrintTo(const ConsensusCase& c, std::ostream* os) {
  *os << "n=" << c.n << " t=" << c.t << " " << c.pattern << " " << c.adversary;
}

class FewCrashesSweep : public ::testing::TestWithParam<ConsensusCase> {};

TEST_P(FewCrashesSweep, SolvesConsensus) {
  const auto& c = GetParam();
  const auto params = ConsensusParams::practical(c.n, c.t);
  const auto inputs = make_inputs(c.n, c.pattern, 23);
  const auto outcome = run_few_crashes_consensus(
      params, inputs, make_adversary(c.adversary, c.n, c.t, 131));
  EXPECT_TRUE(outcome.termination) << "not all non-faulty nodes decided";
  EXPECT_TRUE(outcome.agreement);
  EXPECT_TRUE(outcome.validity);
  EXPECT_EQ(outcome.report.metrics.fallback_pulls, 0)
      << "certified-pull epilogue should stay dormant";
}

INSTANTIATE_TEST_SUITE_P(
    Grid, FewCrashesSweep,
    ::testing::Values(
        ConsensusCase{50, 0, "random", "none"}, ConsensusCase{50, 5, "all0", "burst0"},
        ConsensusCase{50, 5, "all1", "burst0"}, ConsensusCase{100, 12, "half", "random"},
        ConsensusCase{100, 12, "one1", "staggered"}, ConsensusCase{100, 19, "random", "random"},
        ConsensusCase{256, 31, "random", "burst0"}, ConsensusCase{256, 31, "all1", "partial"},
        ConsensusCase{256, 51, "random", "disruptor"}, ConsensusCase{400, 79, "half", "random"},
        ConsensusCase{512, 100, "random", "random"}, ConsensusCase{512, 100, "all0", "burst0"}),
    [](const auto& info) {
      const auto& c = info.param;
      return test::case_name("n", c.n, "t", c.t, "_", c.pattern, "_", c.adversary);
    });

TEST(FewCrashes, DeterministicAcrossRuns) {
  const auto params = ConsensusParams::practical(128, 20);
  const auto inputs = make_inputs(128, "random", 5);
  const auto a = run_few_crashes_consensus(
      params, inputs, sim::make_scheduled(sim::random_crash_schedule(128, 20, 0, 60, 0.0, 9)));
  const auto b = run_few_crashes_consensus(
      params, inputs, sim::make_scheduled(sim::random_crash_schedule(128, 20, 0, 60, 0.0, 9)));
  EXPECT_EQ(a.report.rounds, b.report.rounds);
  EXPECT_EQ(a.report.metrics.messages_total, b.report.metrics.messages_total);
  EXPECT_EQ(a.decision, b.decision);
}

TEST(FewCrashes, RoundsLinearInT) {
  for (std::int64_t t : {8, 16, 32, 64}) {
    const NodeId n = static_cast<NodeId>(8 * t);
    const auto params = ConsensusParams::practical(n, t);
    const auto inputs = make_inputs(n, "random", 3);
    const auto outcome = run_few_crashes_consensus(params, inputs, nullptr);
    EXPECT_TRUE(outcome.all_good());
    EXPECT_LE(outcome.report.rounds, 6 * t + 12 * ceil_log2(static_cast<std::uint64_t>(n)) + 40)
        << "t=" << t;
  }
}

TEST(FewCrashes, BitsNearLinearInN) {
  // Theorem 7: O(n + t log t) one-bit messages.
  std::vector<double> bits_per_node;
  for (NodeId n : {256, 512, 1024}) {
    const std::int64_t t = n / 8;
    const auto params = ConsensusParams::practical(n, t);
    const auto inputs = make_inputs(n, "random", 3);
    const auto outcome = run_few_crashes_consensus(params, inputs, nullptr);
    EXPECT_TRUE(outcome.all_good());
    bits_per_node.push_back(static_cast<double>(outcome.report.metrics.bits_total) /
                            static_cast<double>(n));
  }
  // Bits per node should stay bounded (no super-linear blowup).
  EXPECT_LT(bits_per_node.back(), 2.5 * bits_per_node.front() + 8.0);
}

// ---- Many-Crashes-Consensus (Theorem 8, Corollary 1) ---------------------------------

class ManyCrashesSweep : public ::testing::TestWithParam<ConsensusCase> {};

TEST_P(ManyCrashesSweep, SolvesConsensus) {
  const auto& c = GetParam();
  auto params = ConsensusParams::practical(c.n, c.t);
  const auto inputs = make_inputs(c.n, c.pattern, 29);
  const auto outcome = run_many_crashes_consensus(
      params, inputs, make_adversary(c.adversary, c.n, c.t, 211));
  EXPECT_TRUE(outcome.termination);
  EXPECT_TRUE(outcome.agreement);
  EXPECT_TRUE(outcome.validity);
}

INSTANTIATE_TEST_SUITE_P(
    Grid, ManyCrashesSweep,
    ::testing::Values(ConsensusCase{64, 16, "random", "random"},
                      ConsensusCase{64, 32, "half", "burst0"},
                      ConsensusCase{64, 63, "random", "none"},
                      ConsensusCase{128, 64, "random", "random"},
                      ConsensusCase{128, 100, "all1", "random"},
                      ConsensusCase{128, 127, "random", "staggered"},
                      ConsensusCase{200, 120, "one1", "partial"},
                      ConsensusCase{200, 199, "random", "random"}),
    [](const auto& info) {
      const auto& c = info.param;
      return test::case_name("n", c.n, "t", c.t, "_", c.pattern, "_", c.adversary);
    });

TEST(ManyCrashes, SurvivesTotalWipeoutButOne) {
  // t = n-1 and the adversary kills everyone except node 3 at round 0.
  const NodeId n = 64;
  auto params = ConsensusParams::practical(n, n - 1);
  std::vector<sim::CrashEvent> events;
  for (NodeId v = 0; v < n; ++v) {
    if (v != 3) events.push_back(sim::CrashEvent{0, v, 0.0});
  }
  const auto inputs = make_inputs(n, "random", 31);
  const auto outcome =
      run_many_crashes_consensus(params, inputs, sim::make_scheduled(std::move(events)));
  EXPECT_TRUE(outcome.termination);
  EXPECT_TRUE(outcome.agreement);
  EXPECT_TRUE(outcome.validity);
  ASSERT_TRUE(outcome.decision.has_value());
  EXPECT_EQ(*outcome.decision, static_cast<std::uint64_t>(inputs[3]))
      << "lone survivor must decide its own input";
}

TEST(ManyCrashes, RoundBoundMatchesCorollary1Shape) {
  // Corollary 1: n + 3(1 + lg n) rounds. Our schedule adds the inquiry
  // phases and epilogue, still n + O(log n).
  for (NodeId n : {64, 128, 256}) {
    auto params = ConsensusParams::practical(n, n / 2);
    const auto inputs = make_inputs(n, "random", 37);
    const auto outcome = run_many_crashes_consensus(params, inputs, nullptr);
    EXPECT_TRUE(outcome.all_good());
    const auto logn = static_cast<Round>(ceil_log2(static_cast<std::uint64_t>(n)));
    EXPECT_LE(outcome.report.rounds, static_cast<Round>(n) + 8 * logn + 16) << "n=" << n;
    EXPECT_GE(outcome.report.rounds, static_cast<Round>(n) - 1) << "n=" << n;
  }
}

// ---- overlay requests ----------------------------------------------------------

TEST(ConsensusOverlays, FewCrashesRequestIsOneBatchOfThePinnedSpecs) {
  // crash_isolate_little's shape. These specs are the ones
  // Overlay.BitIdenticalToPinnedDigests (test_graph) pins, so the protocol
  // asks for exactly the pinned graphs.
  const auto p = ConsensusParams::practical(200, 30);
  const auto got = consensus_overlays(p, {.little_g = true,
                                          .spread_h = true,
                                          .inquiry_phases = p.scv_phases,
                                          .inquiry_tag = p.overlay_tag ^ kOverlayInquiryBase});
  const std::vector<graph::OverlaySpec> specs = {
      {150, 16, 0x65},  {200, 12, 0x67},  {200, 20, 0x3e8},  {200, 40, 0x3e9},
      {200, 80, 0x3ea}, {200, 160, 0x3eb}, {200, 199, 0x3ec}, {200, 199, 0x3ed}};
  const auto want = graph::shared_overlays(specs);
  EXPECT_EQ(got.little_g, want[0]);
  EXPECT_EQ(got.spread_h, want[1]);
  EXPECT_EQ(got.all_g, nullptr);
  ASSERT_EQ(got.inquiry.size(), 6u);
  for (std::size_t i = 0; i < got.inquiry.size(); ++i) {
    ASSERT_TRUE(got.inquiry[i].is_materialized());
    EXPECT_EQ(&got.inquiry[i].materialized(), want[2 + i].get()) << "phase " << i;
  }
}

TEST(ConsensusOverlays, ImplicitInquiryPhasesMatchTheirPinnedDigest) {
  // At n = 300000 even phase 0 (degree 20) is past the materialization
  // budget, so the family is all implicit: circulants, then complete
  // graphs. The digest (max degree, then the neighbors of four vertices,
  // per phase) was recorded from the per-phase construction that the
  // cached implicit lists replaced.
  const auto p = ConsensusParams::practical(300000, 5000);
  const OverlayRequest request{.inquiry_phases = p.scv_phases,
                               .inquiry_tag = p.overlay_tag ^ kOverlayInquiryBase};
  auto digest = [](const std::vector<graph::PhaseGraph>& family) {
    std::uint64_t h = hash_combine(0, family.size());
    for (const auto& g : family) {
      h = hash_combine(h, g.is_materialized() ? 1 : 0);
      h = hash_combine(h, static_cast<std::uint64_t>(g.max_degree()));
      for (const NodeId v : {0, 1, 150000, 299999}) {
        g.for_each_neighbor(
            v, [&h](NodeId w) { h = hash_combine(h, static_cast<std::uint64_t>(w)); });
      }
    }
    return h;
  };
  const auto family = consensus_overlays(p, request).inquiry;
  EXPECT_EQ(family.size(), 14u);
  EXPECT_EQ(digest(family), 0xe80be79d642e5013ULL);
  // A second process of the configuration gets the cached family, and so
  // does one after the cache is dropped.
  EXPECT_EQ(digest(consensus_overlays(p, request).inquiry), 0xe80be79d642e5013ULL);
  graph::clear_overlay_cache();
  EXPECT_EQ(digest(consensus_overlays(p, request).inquiry), 0xe80be79d642e5013ULL);
}

// ---- the shared config cache -------------------------------------------------------

TEST(ConsensusConfigCache, OneConfigPerParamsAndRequest) {
  const auto p = ConsensusParams::practical(200, 30);
  const auto a = make_few_crashes_process(p, 0, 1);
  const auto b = make_few_crashes_process(p, 199, 0);
  ASSERT_NE(a->config(), nullptr);
  EXPECT_EQ(a->config(), b->config());
  EXPECT_EQ(a->config(), shared_consensus_config(p, few_crashes_request(p)));
  EXPECT_NE(make_many_crashes_process(p, 0, 1)->config(), a->config());
  EXPECT_NE(make_few_crashes_process(ConsensusParams::practical(220, 30), 0, 1)->config(),
            a->config());
}

TEST(ConsensusConfigCache, ClearDropsTheConfigs) {
  const auto p = ConsensusParams::practical(200, 30);
  const OverlayRequest request = few_crashes_request(p);
  const auto before = shared_consensus_config(p, request);
  graph::clear_overlay_cache();
  const auto after = shared_consensus_config(p, request);
  EXPECT_NE(after, before);
  EXPECT_NE(after->overlays.little_g.get(), before->overlays.little_g.get());
  EXPECT_NE(after->overlays.spread_h.get(), before->overlays.spread_h.get());
  ASSERT_TRUE(after->overlays.inquiry.front().is_materialized());
  EXPECT_NE(&after->overlays.inquiry.front().materialized(),
            &before->overlays.inquiry.front().materialized());
  EXPECT_EQ(shared_consensus_config(p, request), after);
}

TEST(ConsensusConfigCache, ProcessHeldAcrossAClearRunsBitIdentically) {
  const auto p = ConsensusParams::practical(300, 40);
  const auto inputs = make_inputs(p.n, "random", 11);
  auto crashes = [&] { return sim::make_scheduled(sim::burst_crash_schedule(p.n, p.t, 3, 5)); };
  auto make = [&](NodeId v) {
    return make_few_crashes_process(p, v, inputs[static_cast<std::size_t>(v)]);
  };
  const auto fresh = run_system(p.n, p.t, make, crashes());

  std::vector<std::unique_ptr<StageProcess>> held;
  for (NodeId v = 0; v < p.n; ++v) held.push_back(make(v));
  graph::clear_overlay_cache();
  std::size_t next = 0;
  const auto rerun = run_system(
      p.n, p.t, [&](NodeId) { return std::move(held[next++]); }, crashes());
  EXPECT_EQ(scenarios::fingerprint(rerun), scenarios::fingerprint(fresh));
  EXPECT_EQ(rerun.rounds, fresh.rounds);
  EXPECT_EQ(rerun.metrics.messages_total, fresh.metrics.messages_total);
}

TEST(ConsensusConfigCache, ConcurrentBuildsAndClears) {
  // Four builders, two per parameter set, against a fifth thread clearing
  // the cache: every process gets a whole config of its own parameters.
  const std::vector<ConsensusParams> params = {ConsensusParams::practical(200, 30),
                                               ConsensusParams::practical(240, 40)};
  std::atomic<bool> done{false};
  std::thread clearer([&] {
    while (!done.load()) {
      graph::clear_overlay_cache();
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  });
  std::vector<std::thread> builders;
  for (int k = 0; k < 4; ++k) {
    builders.emplace_back([&params, k] {
      const ConsensusParams& p = params[static_cast<std::size_t>(k % 2)];
      for (int i = 0; i < 40; ++i) {
        const auto proc = make_few_crashes_process(p, static_cast<NodeId>(i), i % 2);
        const ConsensusConfig& config = *proc->config();
        EXPECT_EQ(config.params, p);
        EXPECT_EQ(config.overlays.little_g->num_vertices(), p.little_count);
        EXPECT_EQ(config.overlays.spread_h->num_vertices(), p.n);
        EXPECT_EQ(config.overlays.inquiry.size(), static_cast<std::size_t>(p.scv_phases));
      }
    });
  }
  for (auto& b : builders) b.join();
  done.store(true);
  clearer.join();
  const auto inputs = make_inputs(params[0].n, "half", 0);
  EXPECT_TRUE(run_few_crashes_consensus(params[0], inputs, nullptr).all_good());
}

}  // namespace
}  // namespace lft::core
