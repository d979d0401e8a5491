// White-box tests for the protocol stages (the parts of Figures 1-4) and the
// local-probing primitive, including a direct validation of Proposition 1:
// probing survival in an execution coincides with the graph-theoretic
// dense-neighborhood / survival-subset predicates computed offline.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "common/bitset.hpp"
#include "core/local_probe.hpp"
#include "core/stages.hpp"
#include "core/tags.hpp"
#include "graph/families.hpp"
#include "graph/overlay.hpp"
#include "graph/properties.hpp"
#include "sim/adversary.hpp"
#include "sim/engine.hpp"

namespace lft::core {
namespace {

// ---- LocalProbe unit tests ------------------------------------------------------

TEST(LocalProbe, SurvivesWithEnoughReceipts) {
  LocalProbe probe(3, 2);
  EXPECT_EQ(probe.duration(), 4);
  EXPECT_TRUE(probe.step(0));   // round 0: no receive check, sends
  EXPECT_TRUE(probe.step(2));   // rounds 1..2: enough receipts, keeps sending
  EXPECT_TRUE(probe.step(5));
  EXPECT_FALSE(probe.step(2));  // round 3 = gamma: checked but no send
  EXPECT_TRUE(probe.finished());
  EXPECT_TRUE(probe.survived());
}

TEST(LocalProbe, PausesPermanentlyOnStarvation) {
  LocalProbe probe(3, 2);
  EXPECT_TRUE(probe.step(0));
  EXPECT_FALSE(probe.step(1));  // 1 < delta: pause, stop sending
  EXPECT_FALSE(probe.step(99)); // pause is permanent within the instance
  EXPECT_FALSE(probe.step(99));
  EXPECT_TRUE(probe.finished());
  EXPECT_FALSE(probe.survived());
}

TEST(LocalProbe, DeltaZeroAlwaysSurvives) {
  LocalProbe probe(2, 0);
  EXPECT_TRUE(probe.step(0));
  EXPECT_TRUE(probe.step(0));
  EXPECT_FALSE(probe.step(0));
  EXPECT_TRUE(probe.survived());
}

TEST(LocalProbe, FirstRoundReceiptsNotChecked) {
  // Nothing can arrive before the first sends; round 0 must not pause.
  LocalProbe probe(2, 5);
  EXPECT_TRUE(probe.step(0));
  EXPECT_FALSE(probe.step(1));  // now the check applies
  EXPECT_FALSE(probe.survived());
}

// ---- Stage test harness -----------------------------------------------------------

/// Runs one stage type at every node over the engine and returns the states.
class StageHarness {
 public:
  template <typename MakeStage>
  static std::vector<BinaryState> run(NodeId n, std::span<const int> candidates,
                                      MakeStage make_stage,
                                      std::unique_ptr<sim::FaultInjector> adversary = nullptr,
                                      std::int64_t budget = 0) {
    sim::EngineConfig config;
    config.crash_budget = budget;
    sim::Engine engine(n, config);
    std::vector<StageProcess*> procs;
    for (NodeId v = 0; v < n; ++v) {
      auto proc = std::make_unique<StageProcess>(v);
      proc->state().candidate = candidates[static_cast<std::size_t>(v)];
      proc->add_stage(make_stage(v, proc->state()));
      procs.push_back(proc.get());
      engine.set_process(v, std::move(proc));
    }
    if (adversary) engine.add_fault_injector(std::move(adversary));
    engine.run();
    std::vector<BinaryState> states;
    states.reserve(static_cast<std::size_t>(n));
    for (auto* p : procs) states.push_back(p->state());
    return states;
  }
};

// ---- FloodRumorStage -----------------------------------------------------------------

TEST(FloodRumorStage, PropagatesOneThroughConnectedGraph) {
  const NodeId n = 16;
  auto g = std::make_shared<const graph::Graph>(graph::ring_graph(n));
  std::vector<int> candidates(n, 0);
  candidates[3] = 1;
  const auto states = StageHarness::run(n, candidates, [&](NodeId self, BinaryState& st) {
    return FloodRumorStage(self, n, *g, n - 1, st);
  });
  for (const auto& st : states) EXPECT_EQ(st.candidate, 1);
}

TEST(FloodRumorStage, AllZeroStaysSilent) {
  const NodeId n = 12;
  auto g = std::make_shared<const graph::Graph>(graph::complete_graph(n));
  std::vector<int> candidates(n, 0);
  sim::EngineConfig config;
  sim::Engine engine(n, config);
  for (NodeId v = 0; v < n; ++v) {
    auto proc = std::make_unique<StageProcess>(v);
    proc->add_stage(FloodRumorStage(v, n, *g, 5, proc->state()));
    engine.set_process(v, std::move(proc));
  }
  const auto report = engine.run();
  EXPECT_EQ(report.metrics.messages_total, 0) << "no rumor 1 means no messages at all";
}

TEST(FloodRumorStage, NonMembersDoNotParticipate) {
  const NodeId n = 10;
  const NodeId members = 5;
  auto g = std::make_shared<const graph::Graph>(graph::complete_graph(members));
  std::vector<int> candidates(n, 0);
  candidates[7] = 1;  // a non-member holds 1: must not spread
  const auto states = StageHarness::run(n, candidates, [&](NodeId self, BinaryState& st) {
    return FloodRumorStage(self, members, *g, 4, st);
  });
  for (NodeId v = 0; v < members; ++v) {
    EXPECT_EQ(states[static_cast<std::size_t>(v)].candidate, 0);
  }
}

TEST(FloodRumorStage, EachMemberForwardsAtMostOnce) {
  const NodeId n = 8;
  auto g = std::make_shared<const graph::Graph>(graph::complete_graph(n));
  std::vector<int> candidates(n, 1);  // everyone starts with 1
  sim::Engine engine(n, {});
  for (NodeId v = 0; v < n; ++v) {
    auto proc = std::make_unique<StageProcess>(v);
    proc->state().candidate = 1;
    proc->add_stage(FloodRumorStage(v, n, *g, 6, proc->state()));
    engine.set_process(v, std::move(proc));
  }
  const auto report = engine.run();
  EXPECT_EQ(report.metrics.messages_total, static_cast<std::int64_t>(n) * (n - 1));
}

// ---- ProbeStage and Proposition 1 -------------------------------------------------------

TEST(ProbeStage, AllSurviveWithoutCrashes) {
  const NodeId n = 32;
  auto g = std::make_shared<const graph::Graph>(graph::make_overlay(n, 6, 1));
  std::vector<int> candidates(n, 0);
  const auto states = StageHarness::run(n, candidates, [&](NodeId self, BinaryState& st) {
    return ProbeStage(self, n, *g, 4, 3, st, true);
  });
  for (const auto& st : states) {
    EXPECT_TRUE(st.survived_probe);
    EXPECT_TRUE(st.has_value);
  }
}

TEST(ProbeStage, Proposition1SurvivalMatchesGraphPredicates) {
  // Proposition 1: members of a delta-survival set of the end-alive set
  // survive probing; nodes with no dense neighborhood in the start-alive
  // set do not. Crash a burst at round 0, so B1 = B2 = alive set.
  const NodeId n = 64;
  const int delta = 3;
  const int gamma = 2 + 6;
  auto g = std::make_shared<const graph::Graph>(graph::make_overlay(n, 8, 2));
  std::vector<int> candidates(n, 0);
  const std::int64_t t = 16;
  auto schedule = sim::burst_crash_schedule(n, t, 0, 99);
  DynamicBitset alive(static_cast<std::size_t>(n));
  alive.set_all();
  for (const auto& ev : schedule) alive.set(static_cast<std::size_t>(ev.node), false);

  const auto states = StageHarness::run(
      n, candidates,
      [&](NodeId self, BinaryState& st) {
        return ProbeStage(self, n, *g, gamma, delta, st, false);
      },
      sim::make_scheduled(std::move(schedule)), t);

  const auto core = graph::survival_subset(*g, alive, delta);
  for (NodeId v = 0; v < n; ++v) {
    if (!alive.test(static_cast<std::size_t>(v))) continue;
    const bool survived = states[static_cast<std::size_t>(v)].survived_probe;
    if (core.test(static_cast<std::size_t>(v))) {
      EXPECT_TRUE(survived) << "survival-set member " << v << " must survive probing";
    }
    if (!graph::has_dense_neighborhood(*g, v, gamma, delta, alive)) {
      EXPECT_FALSE(survived) << "node " << v << " without dense neighborhood survived";
    }
    if (survived) {
      EXPECT_TRUE(graph::has_dense_neighborhood(*g, v, gamma, delta, alive))
          << "survivor " << v << " must have a dense neighborhood";
    }
  }
}

TEST(ProbeStage, IsolatedNodeDoesNotSurvive) {
  const NodeId n = 20;
  auto g = std::make_shared<const graph::Graph>(graph::star_graph(n));
  std::vector<int> candidates(n, 0);
  // Crash the hub at round 0: every leaf is isolated.
  const auto states = StageHarness::run(
      n, candidates,
      [&](NodeId self, BinaryState& st) {
        return ProbeStage(self, n, *g, 3, 1, st, true);
      },
      sim::make_scheduled({sim::CrashEvent{0, 0, 0.0}}), 1);
  for (NodeId v = 1; v < n; ++v) {
    EXPECT_FALSE(states[static_cast<std::size_t>(v)].survived_probe) << v;
  }
}

TEST(ProbeStage, RumorOneLiftsCandidateDuringProbing) {
  // Stipulation (b) of Figure 1: receiving rumor 1 during probing lifts a
  // zero candidate.
  const NodeId n = 8;
  auto g = std::make_shared<const graph::Graph>(graph::complete_graph(n));
  std::vector<int> candidates(n, 0);
  candidates[0] = 1;
  const auto states = StageHarness::run(n, candidates, [&](NodeId self, BinaryState& st) {
    return ProbeStage(self, n, *g, 4, 2, st, true);
  });
  for (const auto& st : states) {
    EXPECT_EQ(st.candidate, 1);
    EXPECT_EQ(st.value, 1u);
  }
}

// ---- NotifyRelatedStage -------------------------------------------------------------------

TEST(NotifyRelatedStage, EveryNonLittleHearsItsResidueClass) {
  const NodeId n = 23;
  const NodeId little = 5;
  std::vector<int> candidates(n, 0);
  sim::Engine engine(n, {});
  std::vector<StageProcess*> procs;
  for (NodeId v = 0; v < n; ++v) {
    auto proc = std::make_unique<StageProcess>(v);
    if (v < little) {
      proc->state().has_value = true;
      proc->state().value = 40 + static_cast<std::uint64_t>(v);  // per-little value
    }
    proc->add_stage(NotifyRelatedStage(v, n, little, proc->state()));
    procs.push_back(proc.get());
    engine.set_process(v, std::move(proc));
  }
  engine.run();
  for (NodeId v = little; v < n; ++v) {
    const auto& st = procs[static_cast<std::size_t>(v)]->state();
    EXPECT_TRUE(st.has_value);
    EXPECT_EQ(st.value, 40 + static_cast<std::uint64_t>(v % little)) << v;
  }
}

TEST(NotifyRelatedStage, UndecidedLittleSendsNothing) {
  const NodeId n = 12;
  const NodeId little = 3;
  sim::Engine engine(n, {});
  for (NodeId v = 0; v < n; ++v) {
    auto proc = std::make_unique<StageProcess>(v);
    proc->add_stage(NotifyRelatedStage(v, n, little, proc->state()));
    engine.set_process(v, std::move(proc));
  }
  const auto report = engine.run();
  EXPECT_EQ(report.metrics.messages_total, 0);
}

// ---- SpreadFloodStage ------------------------------------------------------------------------

TEST(SpreadFloodStage, SpreadsToAllOnConnectedGraphWithoutCrashes) {
  const NodeId n = 64;
  auto h = std::make_shared<const graph::Graph>(graph::make_overlay(n, 8, 3));
  sim::Engine engine(n, {});
  std::vector<StageProcess*> procs;
  for (NodeId v = 0; v < n; ++v) {
    auto proc = std::make_unique<StageProcess>(v);
    if (v == 0) {
      proc->state().has_value = true;
      proc->state().value = 9;
    }
    proc->add_stage(SpreadFloodStage(v, *h, 3 * 7, proc->state()));
    procs.push_back(proc.get());
    engine.set_process(v, std::move(proc));
  }
  engine.run();
  for (auto* p : procs) {
    EXPECT_TRUE(p->state().has_value);
    EXPECT_EQ(p->state().value, 9u);
  }
}

TEST(SpreadFloodStage, ForwardsOnlyOnce) {
  const NodeId n = 10;
  auto h = std::make_shared<const graph::Graph>(graph::complete_graph(n));
  sim::Engine engine(n, {});
  for (NodeId v = 0; v < n; ++v) {
    auto proc = std::make_unique<StageProcess>(v);
    proc->state().has_value = true;  // everyone already decided
    proc->state().value = 1;
    proc->add_stage(SpreadFloodStage(v, *h, 6, proc->state()));
    engine.set_process(v, std::move(proc));
  }
  const auto report = engine.run();
  EXPECT_EQ(report.metrics.messages_total, static_cast<std::int64_t>(n) * (n - 1));
}

// ---- InquiryPhasesStage -------------------------------------------------------------------------

TEST(InquiryPhasesStage, UndecidedAdoptFromDecidedNeighbors) {
  const NodeId n = 40;
  std::vector<graph::PhaseGraph> graphs{
      std::make_shared<const graph::Graph>(graph::complete_graph(n))};
  sim::Engine engine(n, {});
  std::vector<StageProcess*> procs;
  for (NodeId v = 0; v < n; ++v) {
    auto proc = std::make_unique<StageProcess>(v);
    if (v % 4 == 0) {
      proc->state().has_value = true;
      proc->state().value = 5;
    }
    proc->add_stage(InquiryPhasesStage(v, graphs, proc->state()));
    procs.push_back(proc.get());
    engine.set_process(v, std::move(proc));
  }
  engine.run();
  for (auto* p : procs) {
    EXPECT_TRUE(p->state().has_value);
    EXPECT_EQ(p->state().value, 5u);
  }
}

TEST(InquiryPhasesStage, NobodyDecidedMeansNoReplies) {
  const NodeId n = 10;
  std::vector<graph::PhaseGraph> graphs{
      std::make_shared<const graph::Graph>(graph::complete_graph(n))};
  sim::Engine engine(n, {});
  for (NodeId v = 0; v < n; ++v) {
    auto proc = std::make_unique<StageProcess>(v);
    proc->add_stage(InquiryPhasesStage(v, graphs, proc->state()));
    engine.set_process(v, std::move(proc));
  }
  const auto report = engine.run();
  // Inquiries flow (everyone undecided) but no replies come back.
  EXPECT_EQ(report.metrics.messages_total, static_cast<std::int64_t>(n) * (n - 1));
  EXPECT_EQ(report.decided_count(), 0);
}

// ---- PullStage -------------------------------------------------------------------------------------

TEST(PullStage, StragglerPullsFromTargetsAndCountsFallback) {
  const NodeId n = 12;
  const NodeId targets = 4;
  sim::Engine engine(n, {});
  std::vector<StageProcess*> procs;
  for (NodeId v = 0; v < n; ++v) {
    auto proc = std::make_unique<StageProcess>(v);
    if (v < targets) {
      proc->state().has_value = true;
      proc->state().value = 3;
    }
    proc->add_stage(PullStage(v, targets, proc->state(),
                                                /*fallback_metric=*/true));
    procs.push_back(proc.get());
    engine.set_process(v, std::move(proc));
  }
  const auto report = engine.run();
  for (auto* p : procs) EXPECT_TRUE(p->state().has_value);
  EXPECT_EQ(report.metrics.fallback_pulls, static_cast<std::int64_t>(n - targets));
}

TEST(PullStage, DecidedNodesStayQuiet) {
  const NodeId n = 6;
  sim::Engine engine(n, {});
  for (NodeId v = 0; v < n; ++v) {
    auto proc = std::make_unique<StageProcess>(v);
    proc->state().has_value = true;
    proc->state().value = 1;
    proc->add_stage(PullStage(v, n, proc->state(), true));
    engine.set_process(v, std::move(proc));
  }
  const auto report = engine.run();
  EXPECT_EQ(report.metrics.messages_total, 0);
  EXPECT_EQ(report.metrics.fallback_pulls, 0);
}

}  // namespace
}  // namespace lft::core
