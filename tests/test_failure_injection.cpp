// Failure-injection tests: crash bursts aimed at each protocol stage
// boundary, per-seed randomized sweeps, targeted isolation attacks, the
// "one crash per round" stagger, and the unified fault plane's regimes —
// omission quorums, partition heal/re-merge, Byzantine takeover determinism,
// and cross-thread bit-identity under active fault plans.
#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <memory>
#include <ostream>
#include <string>
#include <vector>

#include "byzantine/ab_consensus.hpp"
#include "common/math.hpp"
#include "common/rng.hpp"
#include "core/checkpointing.hpp"
#include "core/consensus.hpp"
#include "core/gossip.hpp"
#include "graph/overlay.hpp"
#include "core/stages.hpp"
#include "forensics/trace.hpp"
#include "scenarios/scenarios.hpp"
#include "sim/adversary.hpp"
#include "sim/faults.hpp"
#include "test_util.hpp"

namespace lft::core {
namespace {

std::vector<int> random_inputs(NodeId n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<int> inputs(static_cast<std::size_t>(n));
  for (auto& b : inputs) b = static_cast<int>(rng.uniform(2));
  return inputs;
}

// ---- crash bursts aimed at each stage window -------------------------------------

struct WindowCase {
  const char* stage;
  double frac;  // position of the burst within the protocol schedule [0, 1]
};

// gtest appends the printed parameter to each case's listed name; without a
// printer it dumps the raw bytes, here including the address of `stage`,
// which ASLR changes on every run.
void PrintTo(const WindowCase& c, std::ostream* os) {
  *os << c.stage << " at " << c.frac;
}

class StageWindowSweep : public ::testing::TestWithParam<WindowCase> {};

TEST_P(StageWindowSweep, FewCrashesSurvivesBurstInEveryStage) {
  const auto& c = GetParam();
  const NodeId n = 200;
  const std::int64_t t = 30;
  const auto params = ConsensusParams::practical(n, t);
  // Schedule length: flood (5t-1) + probe (gamma+2) + notify 2 + spread + phases.
  const Round total = params.flood_rounds_little + params.probe_gamma_little + 3 +
                      params.spread_rounds + 2 * params.scv_phases + 4;
  const Round when = static_cast<Round>(c.frac * static_cast<double>(total));
  const auto inputs = random_inputs(n, 71);
  const auto outcome = run_few_crashes_consensus(
      params, inputs, sim::make_scheduled(sim::burst_crash_schedule(n, t, when, 73)));
  EXPECT_TRUE(outcome.termination) << c.stage;
  EXPECT_TRUE(outcome.agreement) << c.stage;
  EXPECT_TRUE(outcome.validity) << c.stage;
}

INSTANTIATE_TEST_SUITE_P(Windows, StageWindowSweep,
                         ::testing::Values(WindowCase{"flood_start", 0.0},
                                           WindowCase{"flood_mid", 0.4},
                                           WindowCase{"probe", 0.88},
                                           WindowCase{"notify", 0.93},
                                           WindowCase{"spread", 0.96},
                                           WindowCase{"inquiry", 0.99}),
                         [](const auto& info) { return info.param.stage; });

TEST(StageWindow, CheckpointingSurvivesBurstAtGossipConsensusBoundary) {
  const NodeId n = 150;
  const std::int64_t t = 20;
  const auto params = CheckpointParams::practical(n, t);
  // Gossip occupies 2 * phases * (gamma + 3) + 3 rounds; burst right there.
  const Round boundary =
      2 * params.gossip.phases * (params.gossip.probe_gamma + 3) + 3;
  const auto outcome = run_checkpointing(
      params, sim::make_scheduled(sim::burst_crash_schedule(n, t, boundary, 79)));
  EXPECT_TRUE(outcome.all_good());
}

TEST(StageWindow, GossipSurvivesBurstBetweenParts) {
  const NodeId n = 150;
  const std::int64_t t = 20;
  const auto params = GossipParams::practical(n, t);
  std::vector<std::uint64_t> rumors(static_cast<std::size_t>(n), 1);
  const Round part1 = params.phases * (params.probe_gamma + 3);
  const auto outcome = run_gossip(
      params, rumors, sim::make_scheduled(sim::burst_crash_schedule(n, t, part1, 83)));
  EXPECT_TRUE(outcome.termination);
  EXPECT_TRUE(outcome.condition1);
  EXPECT_TRUE(outcome.condition2);
}

// ---- randomized seed sweeps ---------------------------------------------------------

class SeedSweep : public ::testing::TestWithParam<int> {};

TEST_P(SeedSweep, FewCrashesAcrossSeeds) {
  const auto seed = static_cast<std::uint64_t>(GetParam());
  const NodeId n = 120;
  const std::int64_t t = 20;
  const auto params = ConsensusParams::practical(n, t);
  const auto inputs = random_inputs(n, seed);
  const auto outcome = run_few_crashes_consensus(
      params, inputs,
      sim::make_scheduled(sim::random_crash_schedule(n, t, 0, 5 * t, 0.5, seed * 31 + 7)));
  EXPECT_TRUE(outcome.all_good()) << "seed " << seed;
  EXPECT_EQ(outcome.report.metrics.fallback_pulls, 0) << "seed " << seed;
}

TEST_P(SeedSweep, ManyCrashesAcrossSeeds) {
  const auto seed = static_cast<std::uint64_t>(GetParam());
  const NodeId n = 96;
  const std::int64_t t = 60;
  const auto params = ConsensusParams::practical(n, t);
  const auto inputs = random_inputs(n, seed + 100);
  const auto outcome = run_many_crashes_consensus(
      params, inputs,
      sim::make_scheduled(sim::random_crash_schedule(n, t, 0, n / 2, 0.3, seed * 37 + 11)));
  EXPECT_TRUE(outcome.all_good()) << "seed " << seed;
}

TEST_P(SeedSweep, GossipAcrossSeeds) {
  const auto seed = static_cast<std::uint64_t>(GetParam());
  const NodeId n = 110;
  const std::int64_t t = 14;
  const auto params = GossipParams::practical(n, t);
  std::vector<std::uint64_t> rumors(static_cast<std::size_t>(n));
  for (NodeId v = 0; v < n; ++v) rumors[static_cast<std::size_t>(v)] = seed * 1000 + v;
  const auto outcome = run_gossip(
      params, rumors,
      sim::make_scheduled(sim::random_crash_schedule(n, t, 0, 4 * t, 0.0, seed * 41 + 13)));
  EXPECT_TRUE(outcome.all_good()) << "seed " << seed;
}

INSTANTIATE_TEST_SUITE_P(Seeds, SeedSweep, ::testing::Range(1, 11),
                         [](const auto& info) { return test::case_name("seed", info.param); });

// ---- targeted isolation --------------------------------------------------------------

TEST(Isolation, LittleNodeCutFromProbeOverlayStillDecides) {
  // Crash every little-overlay neighbor of little node 1: it cannot survive
  // probing, but the SCV inquiry phases run on *different* graphs, so it
  // still learns the decision — phase-graph diversity is load-bearing.
  const NodeId n = 200;
  const std::int64_t t = 30;
  const auto params = ConsensusParams::practical(n, t);
  const auto little_g = graph::shared_overlay(little_overlay_spec(params));
  auto schedule = sim::isolation_crash_schedule(*little_g, 1, t);
  ASSERT_LE(static_cast<std::int64_t>(schedule.size()), t);
  const auto inputs = random_inputs(n, 3);
  const auto outcome =
      run_few_crashes_consensus(params, inputs, sim::make_scheduled(std::move(schedule)));
  EXPECT_TRUE(outcome.termination);
  EXPECT_TRUE(outcome.agreement);
  EXPECT_TRUE(outcome.validity);
  EXPECT_FALSE(outcome.report.nodes[1].crashed);
  EXPECT_TRUE(outcome.report.nodes[1].decided) << "isolated little node must still decide";
}

TEST(Isolation, SpreadOverlayCutVictimRecoversThroughInquiries) {
  const NodeId n = 200;
  const std::int64_t t = 30;
  const auto params = ConsensusParams::practical(n, t);
  const auto h =
      graph::shared_overlay({n, params.spread_degree, params.overlay_tag ^ kOverlaySpreadH});
  const NodeId victim = n - 1;
  auto schedule = sim::isolation_crash_schedule(*h, victim, t);
  const auto inputs = random_inputs(n, 5);
  const auto outcome =
      run_few_crashes_consensus(params, inputs, sim::make_scheduled(std::move(schedule)));
  EXPECT_TRUE(outcome.all_good());
  EXPECT_TRUE(outcome.report.nodes[static_cast<std::size_t>(victim)].decided);
}

// ---- stagger: one crash per round ------------------------------------------------------

TEST(Stagger, OneCrashPerRoundThroughTheWholeExecution) {
  // The paper's efficiency framing: one crash delays termination by O(1)
  // rounds. Our schedules are fixed-length, so the stronger check is that a
  // crash in *every* round of the critical window never breaks safety.
  const NodeId n = 160;
  const std::int64_t t = 31;
  const auto params = ConsensusParams::practical(n, t);
  const auto inputs = random_inputs(n, 7);
  const auto outcome = run_few_crashes_consensus(
      params, inputs,
      sim::make_scheduled(sim::staggered_crash_schedule(n, t, 0, 5, 17)));
  EXPECT_TRUE(outcome.all_good());
}

TEST(Stagger, RoundsIndependentOfCrashCount) {
  // Deterministic schedules: the round count is a function of (n, t), not of
  // how many crashes actually happen (early-stopping is out of scope, as in
  // the paper's algorithms).
  const NodeId n = 120;
  const std::int64_t t = 20;
  const auto params = ConsensusParams::practical(n, t);
  const auto inputs = random_inputs(n, 9);
  const auto quiet = run_few_crashes_consensus(params, inputs, nullptr);
  const auto noisy = run_few_crashes_consensus(
      params, inputs, sim::make_scheduled(sim::burst_crash_schedule(n, t, 0, 21)));
  EXPECT_TRUE(quiet.all_good());
  EXPECT_TRUE(noisy.all_good());
  EXPECT_EQ(quiet.report.rounds, noisy.report.rounds);
}

// ---- partial-send torture ---------------------------------------------------------------

TEST(PartialSend, EveryCrashKeepsHalfItsMessages) {
  const NodeId n = 150;
  const std::int64_t t = 25;
  const auto params = ConsensusParams::practical(n, t);
  const auto inputs = random_inputs(n, 11);
  const auto outcome = run_few_crashes_consensus(
      params, inputs,
      sim::make_scheduled(sim::random_crash_schedule(n, t, 0, 5 * t, 0.5, 23)));
  EXPECT_TRUE(outcome.all_good());
}

TEST(PartialSend, CheckpointingWithPartialCrashes) {
  const auto params = CheckpointParams::practical(120, 15);
  const auto outcome = run_checkpointing(
      params, sim::make_scheduled(sim::random_crash_schedule(120, 15, 0, 80, 0.7, 29)));
  EXPECT_TRUE(outcome.all_good());
}

// ---- unified fault plane: engine-level semantics ---------------------------------------

/// Applies a scripted list of controller actions in the pre-round phase.
class ScriptedInjector final : public sim::FaultInjector {
 public:
  using Script = std::function<void(const sim::EngineView&, sim::FaultController&)>;
  explicit ScriptedInjector(Script script) : script_(std::move(script)) {}
  void pre_round(const sim::EngineView& view, sim::FaultController& control) override {
    script_(view, control);
  }

 private:
  Script script_;
};

/// 3-node fixture: node 0 sends tag 1 to nodes 1 and 2 every round until
/// `rounds`; nodes 1 and 2 count what they receive.
struct FanoutCounts {
  sim::Report report;
  int received_at_1 = 0;
  int received_at_2 = 0;
};

FanoutCounts run_fanout(Round rounds, ScriptedInjector::Script script,
                        sim::EngineConfig config = {}) {
  FanoutCounts out;
  sim::Engine engine(3, config);
  engine.set_process(0, test::lambda_process([rounds](sim::Context& ctx, const sim::Inbox&) {
                       if (ctx.round() >= rounds) {
                         ctx.halt();
                         return;
                       }
                       ctx.send(1, 1, ctx.round());
                       ctx.send(2, 1, ctx.round());
                     }));
  auto listener = [rounds](int& counter) {
    return test::lambda_process(
        [rounds, &counter](sim::Context& ctx, const sim::Inbox& inbox) {
          counter += static_cast<int>(inbox.size());
          if (ctx.round() > rounds) ctx.halt();
        });
  };
  engine.set_process(1, listener(out.received_at_1));
  engine.set_process(2, listener(out.received_at_2));
  engine.add_fault_injector(std::make_unique<ScriptedInjector>(std::move(script)));
  out.report = engine.run();
  return out;
}

TEST(FaultPlane, SendOmissionWindowDropsInTransitButStillAccounts) {
  sim::EngineConfig config;
  config.omission_budget = 1;
  // Node 0 is send-omission faulty during rounds [2, 4): those sends are
  // charged to the metrics (the sender did the work) but never delivered.
  const auto out = run_fanout(
      6,
      [](const sim::EngineView& view, sim::FaultController& control) {
        if (view.round() == 2) control.set_send_omission(0, true);
        if (view.round() == 4) control.set_send_omission(0, false);
      },
      config);
  EXPECT_EQ(out.received_at_1, 4);  // 6 send rounds minus 2 omitted
  EXPECT_EQ(out.received_at_2, 4);
  EXPECT_EQ(out.report.metrics.messages_total, 12);  // all sends accounted
  EXPECT_TRUE(out.report.nodes[0].omission);
  EXPECT_FALSE(out.report.nodes[1].omission);
}

TEST(FaultPlane, RecvOmissionIsPerReceiver) {
  sim::EngineConfig config;
  config.omission_budget = 1;
  const auto out = run_fanout(
      4,
      [](const sim::EngineView& view, sim::FaultController& control) {
        if (view.round() == 0) control.set_recv_omission(1, true);
      },
      config);
  EXPECT_EQ(out.received_at_1, 0);  // deaf from round 0 on
  EXPECT_EQ(out.received_at_2, 4);  // unaffected
}

TEST(FaultPlane, LinkCutIsDirectedAndHealable) {
  const auto out = run_fanout(6, [](const sim::EngineView& view,
                                    sim::FaultController& control) {
    if (view.round() == 1) control.cut_link(0, 1);
    if (view.round() == 3) control.heal_link(0, 1);
  });
  EXPECT_EQ(out.received_at_1, 4);  // rounds 1 and 2 lost on the cut link
  EXPECT_EQ(out.received_at_2, 6);  // the 0 -> 2 link never dropped
}

TEST(FaultPlane, PartitionDropsCrossGroupTrafficUntilHealed) {
  const auto out = run_fanout(6, [](const sim::EngineView& view,
                                    sim::FaultController& control) {
    if (view.round() == 0) {
      // {0, 2} vs {1}: node 1 is split off.
      const std::uint32_t groups[3] = {0, 1, 0};
      control.set_partition(groups);
    }
    if (view.round() == 3) control.clear_partition();
  });
  EXPECT_EQ(out.received_at_1, 3);  // rounds 0-2 crossed the partition
  EXPECT_EQ(out.received_at_2, 6);  // same-group traffic unaffected
}

TEST(FaultPlane, TakeoverSwapsBehaviorAndExcludesFromHonestCounters) {
  sim::EngineConfig config;
  config.byzantine_budget = 1;
  sim::Engine engine(2, config);
  std::vector<std::uint64_t> values_at_1;
  engine.set_process(0, test::lambda_process([](sim::Context& ctx, const sim::Inbox&) {
                       if (ctx.round() >= 6) {
                         ctx.halt();
                         return;
                       }
                       ctx.send(1, 1, /*value=*/7);
                     }));
  engine.set_process(1, test::lambda_process(
                            [&values_at_1](sim::Context& ctx, const sim::Inbox& inbox) {
                              for (const auto& m : inbox) values_at_1.push_back(m.value);
                              if (ctx.round() > 6) ctx.halt();
                            }));
  engine.add_fault_injector(std::make_unique<ScriptedInjector>(
      [](const sim::EngineView& view, sim::FaultController& control) {
        if (view.round() == 3) {
          control.takeover(0, test::lambda_process([](sim::Context& ctx, const sim::Inbox&) {
                             if (ctx.round() >= 6) {
                               ctx.halt();
                               return;
                             }
                             ctx.send(1, 1, /*value=*/9);
                           }));
        }
      }));
  const auto report = engine.run();
  // Rounds 0-2 honest (7), rounds 3-5 Byzantine (9): the swap is effective
  // the round the takeover fires.
  EXPECT_EQ(values_at_1, (std::vector<std::uint64_t>{7, 7, 7, 9, 9, 9}));
  EXPECT_TRUE(report.nodes[0].byzantine);
  EXPECT_EQ(report.metrics.messages_total, 6);
  // Honest counters only cover the pre-takeover sends.
  EXPECT_EQ(report.metrics.messages_honest, 3);
}

TEST(FaultPlane, OverlappingPlanWindowsCompose) {
  // Two overlapping send-omission windows on node 0 ([1, 3) and [2, 5)): the
  // flag must stay up until the *last* window closes, and an inner partition
  // window healing must restore the enclosing partition, not clear it.
  sim::EngineConfig config;
  config.omission_budget = 1;
  sim::Engine engine(3, config);
  int received_at_1 = 0;
  engine.set_process(0, test::lambda_process([](sim::Context& ctx, const sim::Inbox&) {
                       if (ctx.round() >= 8) {
                         ctx.halt();
                         return;
                       }
                       ctx.send(1, 1, ctx.round());
                     }));
  engine.set_process(1, test::lambda_process(
                            [&received_at_1](sim::Context& ctx, const sim::Inbox& inbox) {
                              received_at_1 += static_cast<int>(inbox.size());
                              if (ctx.round() > 8) ctx.halt();
                            }));
  engine.set_process(2, test::idle_process());
  sim::FaultPlan plan;
  plan.omission(0, 1, 3, /*send=*/true, /*recv=*/false);
  plan.omission(0, 2, 5, /*send=*/true, /*recv=*/false);
  engine.add_fault_injector(sim::make_plan_injector(std::move(plan)));
  const auto report = engine.run();
  // Rounds 1-4 omitted (the union of the windows), rounds 0 and 5-7 land.
  EXPECT_EQ(received_at_1, 4);
  EXPECT_TRUE(report.completed);
}

TEST(FaultPlane, NestedPartitionHealRestoresEnclosingSplit) {
  const auto out = run_fanout(10, [](const sim::EngineView&, sim::FaultController&) {});
  EXPECT_EQ(out.received_at_1, 10);  // baseline: nothing dropped

  sim::Engine engine(3, {});
  int received_at_1 = 0;
  engine.set_process(0, test::lambda_process([](sim::Context& ctx, const sim::Inbox&) {
                       if (ctx.round() >= 10) {
                         ctx.halt();
                         return;
                       }
                       ctx.send(1, 1, ctx.round());
                     }));
  engine.set_process(1, test::lambda_process(
                            [&received_at_1](sim::Context& ctx, const sim::Inbox& inbox) {
                              received_at_1 += static_cast<int>(inbox.size());
                              if (ctx.round() > 10) ctx.halt();
                            }));
  engine.set_process(2, test::idle_process());
  sim::FaultPlan plan;
  // Outer split isolates node 1 for [0, 8); an inner split of node 2 spans
  // [2, 4). When the inner window heals at round 4 the outer split must come
  // back into force for rounds [4, 8).
  plan.split(std::vector<std::uint32_t>{0, 1, 0}, 0, 8);
  plan.split(std::vector<std::uint32_t>{0, 1, 2}, 2, 4);
  engine.add_fault_injector(sim::make_plan_injector(std::move(plan)));
  const auto report = engine.run();
  EXPECT_EQ(received_at_1, 2);  // only rounds 8 and 9 cross
  EXPECT_TRUE(report.completed);
}

TEST(FaultPlane, OmissionOnHaltedNodeIsFreeNoOp) {
  // Like crashing a halted node, an omission fault aimed at a node that
  // already halted is disregarded: budget 0 must not abort and the node must
  // not be marked faulty (its decisions were made while non-faulty).
  sim::Engine engine(3, {});  // omission_budget = 0
  engine.set_process(0, test::lambda_process([](sim::Context& ctx, const sim::Inbox&) {
                       ctx.halt();  // halts before the window opens
                     }));
  engine.set_process(1, test::lambda_process([](sim::Context& ctx, const sim::Inbox&) {
                       if (ctx.round() >= 5) ctx.halt();
                     }));
  engine.set_process(2, test::idle_process());
  sim::FaultPlan plan;
  plan.omission(0, 3, 5, /*send=*/true, /*recv=*/true);
  engine.add_fault_injector(sim::make_plan_injector(std::move(plan)));
  const auto report = engine.run();
  EXPECT_TRUE(report.completed);
  EXPECT_FALSE(report.nodes[0].omission);
}

TEST(Omission, GossipPermanentRecvOmissionExemptsFaultyHolders) {
  // Permanent receive omission: the deaf nodes' own extant sets carry no
  // guarantee (holder-side exemption), but every non-faulty node must still
  // satisfy all gossip conditions.
  const NodeId n = 110;
  const std::int64_t t = 14;
  const auto params = GossipParams::practical(n, t);
  std::vector<std::uint64_t> rumors(static_cast<std::size_t>(n), 9);
  sim::FaultPlan plan;
  plan.random_omissions(n, t, 0, sim::kRoundForever, /*send=*/false, /*recv=*/true, 89);
  const auto outcome = run_gossip(params, rumors, sim::make_plan_injector(std::move(plan)));
  EXPECT_TRUE(outcome.all_good());
}

TEST(FaultPlane, OmissionBudgetChargedOncePerNode) {
  sim::EngineConfig config;
  config.omission_budget = 1;  // one faulty node; toggling must not re-charge
  std::int64_t observed_used = -1;
  const auto out = run_fanout(
      6,
      [&observed_used](const sim::EngineView& view, sim::FaultController& control) {
        if (view.round() == 0) control.set_send_omission(0, true);
        if (view.round() == 1) control.set_send_omission(0, false);
        if (view.round() == 2) control.set_recv_omission(0, true);
        if (view.round() == 3) control.set_recv_omission(0, false);
        observed_used = view.omissions_used();
      },
      config);
  EXPECT_EQ(observed_used, 1);
  EXPECT_TRUE(out.report.nodes[0].omission);
}

// ---- omission quorums on the paper's protocols -----------------------------------------

TEST(Omission, SendOmissionQuorumStillReachesFullConsensus) {
  // t send-omission faulty nodes look crashed to everyone else but keep
  // receiving — empirically even the faulty nodes decide the common value
  // (stronger than the crash-model theorem, which would exempt them).
  const NodeId n = 200;
  const std::int64_t t = 30;
  const auto params = ConsensusParams::practical(n, t);
  const auto inputs = random_inputs(n, 41);
  sim::FaultPlan plan;
  plan.random_omissions(n, t, 0, sim::kRoundForever, /*send=*/true, /*recv=*/false, 43);
  const auto outcome = run_few_crashes_consensus(params, inputs,
                                                 sim::make_plan_injector(std::move(plan)));
  EXPECT_TRUE(outcome.all_good());
  EXPECT_EQ(outcome.report.decided_count(), n);
}

TEST(Omission, RecvOmissionBlackoutKeepsSafetyAndNonFaultyTermination) {
  const NodeId n = 200;
  const std::int64_t t = 30;
  const auto params = ConsensusParams::practical(n, t);
  const auto inputs = random_inputs(n, 47);
  sim::FaultPlan plan;
  plan.random_omissions(n, t, 0, sim::kRoundForever, /*send=*/false, /*recv=*/true, 53);
  const auto outcome = run_few_crashes_consensus(params, inputs,
                                                 sim::make_plan_injector(std::move(plan)));
  // Omission-faulty nodes are exempt from termination (they may never hear
  // the decision), but agreement and validity must hold for everyone who
  // decided, and all non-faulty nodes must decide.
  EXPECT_TRUE(outcome.termination);
  EXPECT_TRUE(outcome.agreement);
  EXPECT_TRUE(outcome.validity);
}

TEST(Omission, GossipWithOmissionWindowKeepsConditions) {
  const NodeId n = 110;
  const std::int64_t t = 14;
  const auto params = GossipParams::practical(n, t);
  std::vector<std::uint64_t> rumors(static_cast<std::size_t>(n), 5);
  const Round part1 = params.phases * (params.probe_gamma + 3);
  sim::FaultPlan plan;
  plan.random_omissions(n, t, 0, part1, /*send=*/true, /*recv=*/true, 59);
  const auto outcome = run_gossip(params, rumors, sim::make_plan_injector(std::move(plan)));
  EXPECT_TRUE(outcome.termination);
  EXPECT_TRUE(outcome.condition1);
  EXPECT_TRUE(outcome.condition2);
  EXPECT_TRUE(outcome.rumors_intact);
}

// ---- partition heal / re-merge ---------------------------------------------------------

TEST(Partition, SplitDuringFloodHealsToFullGuarantees) {
  const NodeId n = 200;
  const std::int64_t t = 30;
  const auto params = ConsensusParams::practical(n, t);
  const auto inputs = random_inputs(n, 61);
  sim::FaultPlan plan;
  plan.split_at(n - n / 8, n, 1, 9);  // an eighth split off, then re-merged
  const auto outcome = run_few_crashes_consensus(params, inputs,
                                                 sim::make_plan_injector(std::move(plan)));
  EXPECT_TRUE(outcome.all_good());
  EXPECT_EQ(outcome.report.decided_count(), n);  // the re-merged eighth catches up
}

TEST(Partition, RepeatedSplitHealCycles) {
  // Three short split/heal cycles on different boundaries: healing must
  // fully re-merge state each time.
  const NodeId n = 200;
  const std::int64_t t = 30;
  const auto params = ConsensusParams::practical(n, t);
  const auto inputs = random_inputs(n, 67);
  sim::FaultPlan plan;
  plan.split_at(n / 2, n, 2, 5);
  plan.split_at(n / 4, n, 7, 10);
  plan.split_at(3 * n / 4, n, 12, 15);
  const auto outcome = run_few_crashes_consensus(params, inputs,
                                                 sim::make_plan_injector(std::move(plan)));
  EXPECT_TRUE(outcome.all_good());
}

// ---- Byzantine takeover determinism & cross-thread bit-identity ------------------------

TEST(Takeover, MidrunTakeoverIsDeterministicAcrossRunsAndThreads) {
  const auto params = byzantine::AbParams::practical(120, 11);
  std::vector<std::uint64_t> inputs(120, 0);
  for (std::size_t v = 0; v < inputs.size(); v += 3) inputs[v] = 1;
  auto run_once = [&](int threads) {
    sim::FaultPlan plan;
    for (std::int64_t i = 0; i < 11; ++i) {
      plan.takeover(static_cast<NodeId>(i * 2 % params.little_count), 3, "silent");
    }
    core::RunOptions options;
    options.threads = threads;
    return byzantine::run_ab_consensus_plan(params, inputs, std::move(plan), options);
  };
  const auto a = run_once(1);
  const auto b = run_once(1);
  const auto c = run_once(4);
  EXPECT_TRUE(a.termination);
  EXPECT_TRUE(a.agreement);
  EXPECT_EQ(scenarios::fingerprint(a.report), scenarios::fingerprint(b.report));
  EXPECT_EQ(scenarios::fingerprint(a.report), scenarios::fingerprint(c.report));
}

TEST(Takeover, AbConsensusExemptsOmissionFaultyFromTermination) {
  // Receive-omission nodes may never hear the certified set; like the other
  // runners, AB-Consensus must exempt them from termination and the max rule
  // rather than report a spurious failure.
  const auto params = byzantine::AbParams::practical(120, 11);
  std::vector<std::uint64_t> inputs(120, 0);
  inputs[2] = 1;
  sim::FaultPlan plan;
  plan.random_omissions(120, 11, 0, sim::kRoundForever, /*send=*/false, /*recv=*/true, 83);
  const auto outcome = byzantine::run_ab_consensus_plan(params, inputs, std::move(plan));
  EXPECT_TRUE(outcome.termination);
  EXPECT_TRUE(outcome.agreement);
}

TEST(FaultPlaneThreads, MixedPlanReportBitIdenticalAcrossThreadCounts) {
  // n >= 256 so the parallel stepper's worker pool actually engages; the
  // plan exercises every fault class the crash-model protocol admits.
  const NodeId n = 600;
  const std::int64_t t = 90;
  const auto params = ConsensusParams::practical(n, t);
  const auto inputs = random_inputs(n, 71);
  auto run_once = [&](int threads) {
    sim::FaultPlan plan;
    plan.burst_crashes(n / 2, t / 3, 2, 73);
    plan.random_omissions(n / 2, t / 3, 0, 40, /*send=*/true, /*recv=*/true, 79);
    plan.split_at(n - n / 10, n, 4, 10);
    plan.cut_link(0, 1, 0, 30);
    auto factory = [&](NodeId v) {
      return make_few_crashes_process(params, v, inputs[static_cast<std::size_t>(v)]);
    };
    core::RunOptions options;
    options.threads = threads;
    return run_system(n, t, factory, sim::make_plan_injector(std::move(plan)), options);
  };
  const auto serial = run_once(1);
  const auto parallel = run_once(4);
  EXPECT_EQ(scenarios::fingerprint(serial), scenarios::fingerprint(parallel));
  EXPECT_EQ(serial.metrics.messages_total, parallel.metrics.messages_total);
  EXPECT_EQ(serial.metrics.messages_honest, parallel.metrics.messages_honest);
  ASSERT_EQ(serial.nodes.size(), parallel.nodes.size());
  for (std::size_t v = 0; v < serial.nodes.size(); ++v) {
    EXPECT_EQ(serial.nodes[v].decided, parallel.nodes[v].decided) << v;
    EXPECT_EQ(serial.nodes[v].decision, parallel.nodes[v].decision) << v;
    EXPECT_EQ(serial.nodes[v].omission, parallel.nodes[v].omission) << v;
  }
  const auto outcome = evaluate_consensus(serial, inputs);
  EXPECT_TRUE(outcome.agreement);
  EXPECT_TRUE(outcome.validity);
}

// ---- timing faults: message conservation + the zero-lag noop ---------------------------

/// Traced n=300 workload under `plan` (large enough to engage the parallel
/// stepper): every node fans out two messages per round for six rounds;
/// every fifth node halts at round 3, so messages parked for it past that
/// point must resolve as lost_dead, while everyone else stays up well past
/// the longest lag so their parked messages resolve as delivered.
forensics::Trace traced_delay_fanout(sim::FaultPlan plan, int threads,
                                     sim::EngineScratch* scratch = nullptr) {
  const NodeId n = 300;
  forensics::TraceRecorder recorder;
  sim::EngineConfig config;
  config.threads = threads;
  config.scratch = scratch;
  config.trace = &recorder;
  sim::Engine engine(n, config);
  for (NodeId v = 0; v < n; ++v) {
    engine.set_process(v, test::lambda_process([n](sim::Context& ctx, const sim::Inbox&) {
                         const Round halt_at = ctx.self() % 5 == 0 ? 3 : 16;
                         if (ctx.round() >= halt_at) {
                           ctx.halt();
                           return;
                         }
                         if (ctx.round() >= 6) return;
                         for (int i = 0; i < 2; ++i) {
                           const auto to =
                               static_cast<NodeId>((ctx.self() * 7 + i * 3 + 1) % n);
                           ctx.send(to, static_cast<std::uint32_t>(i),
                                    static_cast<std::uint64_t>(ctx.round()));
                         }
                       }));
  }
  engine.add_fault_injector(sim::make_plan_injector(std::move(plan)));
  const sim::Report report = engine.run();
  forensics::Trace trace = recorder.take();
  trace.report_fingerprint = scenarios::fingerprint(report);
  return trace;
}

TEST(TimingFaults, DelayedMessagesConserveAcrossSteppersAndScratch) {
  // Conservation: a delayed message is held, never lost — each parked
  // message resolves to delivered or lost_dead at its due round, so over a
  // whole trace the send total equals the fate total exactly (the `delayed`
  // column nets out). This must hold identically at 1, 2, and 4 threads and
  // under scratch adoption.
  auto make_plan = [] {
    sim::FaultPlan plan;
    plan.delay_all(0, sim::kRoundForever, 1, 3);
    return plan;
  };
  sim::EngineScratch scratch;
  const forensics::Trace reference = traced_delay_fanout(make_plan(), 1);
  const forensics::Trace runs[] = {
      traced_delay_fanout(make_plan(), 2),
      traced_delay_fanout(make_plan(), 4),
      traced_delay_fanout(make_plan(), 1, &scratch),
      traced_delay_fanout(make_plan(), 4, &scratch),  // recycled buffers
  };
  std::uint64_t sent = 0, fated = 0, parked = 0, dead = 0;
  for (const auto& d : reference.rounds) {
    sent += d.sent;
    fated += d.delivered + d.lost_crash + d.lost_fault + d.lost_dead;
    parked += d.delayed;
    dead += d.lost_dead;
  }
  EXPECT_GT(sent, 0u);
  EXPECT_GT(parked, 0u) << "the plan parked nothing — dead test";
  EXPECT_GT(dead, 0u) << "no parked message outlived its receiver — weak test";
  EXPECT_EQ(sent, fated);
  for (const auto& run : runs) {
    EXPECT_EQ(run.report_fingerprint, reference.report_fingerprint);
    ASSERT_EQ(run.rounds.size(), reference.rounds.size());
    for (std::size_t r = 0; r < run.rounds.size(); ++r) {
      EXPECT_TRUE(run.rounds[r] == reference.rounds[r]) << "round " << r;
    }
  }
}

TEST(TimingFaults, ZeroLagRuleIsBitIdenticalToNoRule) {
  // A [0, 0] delay rule arms the delay plane (every message then draws a
  // lag in the delivery pass) but every coin comes up lag 0, so nothing is
  // ever parked and the execution must match the unarmed run bit for bit —
  // same fingerprint, same digests. The only permitted difference is the
  // `delays` action counter recording the rule install.
  sim::FaultPlan armed;
  armed.delay_all(0, sim::kRoundForever, 0, 0);
  const forensics::Trace with_rule = traced_delay_fanout(std::move(armed), 1);
  const forensics::Trace without = traced_delay_fanout(sim::FaultPlan{}, 1);
  EXPECT_EQ(with_rule.report_fingerprint, without.report_fingerprint);
  ASSERT_EQ(with_rule.rounds.size(), without.rounds.size());
  for (std::size_t r = 0; r < with_rule.rounds.size(); ++r) {
    sim::RoundDigest a = with_rule.rounds[r];
    sim::RoundDigest b = without.rounds[r];
    EXPECT_EQ(a.delayed, 0u) << "round " << r << ": a zero-lag rule parked a message";
    a.delays = 0;
    b.delays = 0;
    EXPECT_TRUE(a == b) << "round " << r;
  }
}

}  // namespace
}  // namespace lft::core
