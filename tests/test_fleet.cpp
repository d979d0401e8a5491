// Fleet mode: the instance-multiplexed FleetRunner must preserve the
// engine's determinism bar — every instance's Report bit-identical to
// running the same (scenario, plan, seed, size) alone in a plain serial
// loop, regardless of fleet concurrency, scratch recycling, submission
// order, or which worker executed it. The headline test queues 1000+ mixed
// scenario instances on a multi-worker pool and checks every fingerprint
// against one-at-a-time execution.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "core/consensus.hpp"
#include "scenarios/scenarios.hpp"
#include "sim/fleet.hpp"
#include "test_util.hpp"

namespace lft {
namespace {

using scenarios::SweepItem;
using sim::EngineScratch;
using sim::FleetConfig;
using sim::FleetRunner;

// ---- FleetRunner basics ----------------------------------------------------

sim::Report tiny_fanout_report(EngineScratch* scratch, NodeId n, Round rounds) {
  sim::EngineConfig config;
  config.scratch = scratch;
  sim::Engine engine(n, config);
  for (NodeId v = 0; v < n; ++v) {
    engine.set_process(v, test::lambda_process([n, rounds](sim::Context& ctx,
                                                           const sim::Inbox& inbox) {
      if (ctx.round() >= rounds) {
        ctx.decide(static_cast<std::uint64_t>(inbox.size()));
        ctx.halt();
        return;
      }
      const std::byte body[8] = {};
      for (NodeId to = 0; to < n; ++to) {
        ctx.send(to, /*tag=*/1, static_cast<std::uint64_t>(ctx.round()), /*bits=*/8,
                 sim::PayloadView(body, sizeof(body)));
      }
    }));
  }
  return engine.run();
}

TEST(FleetRunner, HandleWaitReadyTake) {
  FleetRunner fleet(FleetConfig{2});
  auto handle = fleet.submit(
      [](EngineScratch* scratch) { return tiny_fanout_report(scratch, 8, 3); });
  ASSERT_TRUE(handle.valid());
  const sim::Report& report = handle.wait();
  EXPECT_TRUE(handle.ready());
  EXPECT_TRUE(report.completed);
  EXPECT_EQ(report.decided_count(), 8);
  // take() moves the same state's report out (capture before the move —
  // `report` aliases the moved-from object afterwards).
  const Round rounds_before = report.rounds;
  const sim::Report taken = handle.take();
  EXPECT_EQ(taken.rounds, rounds_before);
}

TEST(FleetRunner, HandleOutlivesRunner) {
  FleetRunner::Handle handle;
  EXPECT_FALSE(handle.valid());
  {
    FleetRunner fleet(FleetConfig{2});
    handle = fleet.submit(
        [](EngineScratch* scratch) { return tiny_fanout_report(scratch, 6, 2); });
  }  // destructor drains: the job has run
  ASSERT_TRUE(handle.valid());
  EXPECT_TRUE(handle.ready());
  EXPECT_TRUE(handle.wait().completed);
}

TEST(FleetRunner, CountsAndWaitAll) {
  FleetRunner fleet(FleetConfig{4});
  constexpr int kJobs = 64;
  std::atomic<int> ran{0};
  std::vector<FleetRunner::Handle> handles;
  for (int i = 0; i < kJobs; ++i) {
    handles.push_back(fleet.submit([&ran, i](EngineScratch* scratch) {
      ran.fetch_add(1, std::memory_order_relaxed);
      return tiny_fanout_report(scratch, 4 + (i % 5), 2 + (i % 7));
    }));
  }
  fleet.wait_all();
  EXPECT_EQ(ran.load(), kJobs);
  EXPECT_EQ(fleet.submitted(), kJobs);
  EXPECT_EQ(fleet.completed(), kJobs);
  for (auto& h : handles) EXPECT_TRUE(h.ready());
}

TEST(FleetRunner, ThreadCountClamped) {
  FleetRunner fleet(FleetConfig{0});
  EXPECT_EQ(fleet.threads(), 1);
  FleetRunner wide(FleetConfig{1000});
  EXPECT_EQ(wide.threads(), 64);
}

// ---- EngineScratch recycling ----------------------------------------------

TEST(EngineScratch, AdoptionIsBitIdenticalToColdBuffers) {
  // Three back-to-back executions in one slot, all adopting the same
  // scratch, vs. cold-buffer references: every Report field must match.
  EngineScratch scratch;
  for (int k = 0; k < 3; ++k) {
    const NodeId n = 12 + 3 * k;
    const Round rounds = 4 + k;
    const sim::Report cold = tiny_fanout_report(nullptr, n, rounds);
    const sim::Report warm = tiny_fanout_report(&scratch, n, rounds);
    EXPECT_EQ(cold.rounds, warm.rounds);
    EXPECT_EQ(cold.completed, warm.completed);
    EXPECT_EQ(cold.metrics.messages_total, warm.metrics.messages_total);
    EXPECT_EQ(cold.metrics.bits_total, warm.metrics.bits_total);
    EXPECT_EQ(cold.metrics.peak_round_messages, warm.metrics.peak_round_messages);
    ASSERT_EQ(cold.nodes.size(), warm.nodes.size());
    for (std::size_t v = 0; v < cold.nodes.size(); ++v) {
      EXPECT_EQ(cold.nodes[v].decided, warm.nodes[v].decided);
      EXPECT_EQ(cold.nodes[v].decision, warm.nodes[v].decision);
      EXPECT_EQ(cold.nodes[v].sends, warm.nodes[v].sends);
    }
  }
}

TEST(EngineScratch, RecyclesThroughProtocolRunners) {
  // run_system with a shared scratch across heterogeneous consensus sizes
  // must reproduce the cold-run fingerprints.
  EngineScratch scratch;
  for (const NodeId n : {48, 64, 48}) {
    const std::int64_t t = n / 8;
    const auto params = core::ConsensusParams::practical(n, t);
    const auto inputs = std::vector<int>(static_cast<std::size_t>(n), 1);
    auto factory = [&](NodeId v) {
      return core::make_few_crashes_process(params, v, inputs[static_cast<std::size_t>(v)]);
    };
    core::RunOptions warm_options;
    warm_options.scratch = &scratch;
    const auto cold = core::run_system(n, t, factory, nullptr, {});
    const auto warm = core::run_system(n, t, factory, nullptr, warm_options);
    EXPECT_EQ(scenarios::fingerprint(cold), scenarios::fingerprint(warm)) << "n=" << n;
  }
}

TEST(EngineScratch, RecyclesDelayBucketsAcrossExecutions) {
  // Timing faults park messages in delay-queue buckets. A slot's scratch
  // keeps the emptied buckets for the next execution, which must still
  // reproduce its cold run.
  EngineScratch scratch;
  for (const char* name : {"delay_uniform_jitter", "gst_early_stabilize", "delay_uniform_jitter"}) {
    const auto* scenario = scenarios::find_scenario(name);
    ASSERT_NE(scenario, nullptr) << name;
    core::RunOptions warm_options;
    warm_options.scratch = &scratch;
    const auto cold = scenario->run_at(7, scenario->n, scenario->t, {});
    const auto warm = scenario->run_at(7, scenario->n, scenario->t, warm_options);
    EXPECT_TRUE(warm.ok) << name << ": " << warm.detail;
    EXPECT_EQ(scenarios::fingerprint(cold.report), scenarios::fingerprint(warm.report)) << name;
    EXPECT_FALSE(scratch.delayed.empty()) << name << ": no bucket came back to the scratch";
  }
}

TEST(EngineScratch, CountsAdoptionsAndRecycles) {
  EngineScratch scratch;
  EXPECT_EQ(scratch.adoptions, 0);
  EXPECT_EQ(scratch.recycles, 0);
  (void)tiny_fanout_report(&scratch, 10, 2);
  EXPECT_EQ(scratch.adoptions, 1);
  EXPECT_EQ(scratch.recycles, 0);  // first adoption found cold buffers
  (void)tiny_fanout_report(&scratch, 10, 2);
  (void)tiny_fanout_report(&scratch, 14, 3);
  EXPECT_EQ(scratch.adoptions, 3);
  EXPECT_EQ(scratch.recycles, 2);  // later adoptions found warm buffers
}

TEST(FleetRunner, ScratchStatsCountEveryInstance) {
  constexpr int kJobs = 48;
  constexpr int kWorkers = 4;
  FleetRunner fleet(FleetConfig{kWorkers, /*reuse_scratch=*/true});
  for (int i = 0; i < kJobs; ++i) {
    (void)fleet.submit(
        [i](EngineScratch* scratch) { return tiny_fanout_report(scratch, 8 + (i % 3), 2); });
  }
  fleet.wait_all();  // stats are exact only after wait_all (see fleet.hpp)
  EXPECT_EQ(fleet.scratch_adoptions(), kJobs);
  // Each worker's first instance finds cold buffers; everything after
  // recycles. Work stealing decides the split, so only bound it.
  EXPECT_GE(fleet.scratch_recycles(), kJobs - kWorkers);
  EXPECT_LT(fleet.scratch_recycles(), kJobs);
}

TEST(FleetRunner, ScratchStatsZeroWhenReuseDisabled) {
  FleetRunner fleet(FleetConfig{2, /*reuse_scratch=*/false});
  for (int i = 0; i < 8; ++i) {
    (void)fleet.submit([](EngineScratch* scratch) { return tiny_fanout_report(scratch, 8, 2); });
  }
  fleet.wait_all();
  EXPECT_EQ(fleet.scratch_adoptions(), 0);
  EXPECT_EQ(fleet.scratch_recycles(), 0);
}

// ---- the acceptance bar: 1000+ mixed instances, bit-identical --------------

std::vector<SweepItem> mixed_thousand() {
  // 8 scenarios x 64 seeds x 2 sizes = 1024 instances, spanning crash,
  // omission, partition, link, byzantine, and mixed fault classes.
  static const std::vector<NodeId> kSizes = {48, 64};
  static const char* kScenarios[] = {
      "crash_staggered_drip",  "crash_partial_sends", "omission_send_quorum",
      "omission_recv_blackout", "partition_split_heal", "link_flaky_mesh",
      "mixed_crash_omission_split", "byz_silent_little"};
  std::vector<std::uint64_t> seeds(64);
  for (std::size_t i = 0; i < seeds.size(); ++i) seeds[i] = 1 + static_cast<std::uint64_t>(i);
  std::vector<SweepItem> items;
  for (const char* name : kScenarios) {
    auto expanded = scenarios::sweep(name, seeds, kSizes);
    items.insert(items.end(), expanded.begin(), expanded.end());
  }
  return items;
}

TEST(FleetSweep, ThousandMixedInstancesBitIdenticalToSerial) {
  const auto items = mixed_thousand();
  ASSERT_GE(items.size(), 1000u);

  FleetRunner fleet(FleetConfig{8, /*reuse_scratch=*/true});
  const auto outcomes = scenarios::run_sweep(fleet, items);
  ASSERT_EQ(outcomes.size(), items.size());
  fleet.wait_all();  // handles are fulfilled just before the counter bumps
  EXPECT_EQ(fleet.completed(), static_cast<std::int64_t>(items.size()));

  for (std::size_t i = 0; i < items.size(); ++i) {
    const auto& out = outcomes[i];
    // Outcomes arrive in item order regardless of completion order.
    EXPECT_EQ(out.item.scenario, items[i].scenario);
    EXPECT_EQ(out.item.seed, items[i].seed);
    EXPECT_TRUE(out.ok) << out.item.scenario->name << " seed " << out.item.seed << " n "
                        << out.item.n << ": " << out.detail;
    // The acceptance bar: bit-identical to serial one-at-a-time execution
    // (cold buffers, no fleet, no scratch).
    const auto serial = items[i].scenario->run_at(items[i].seed, items[i].n, items[i].t, {});
    EXPECT_EQ(scenarios::fingerprint(serial.report), out.fingerprint)
        << items[i].scenario->name << " seed " << items[i].seed << " n " << items[i].n;
    // And the full report shipped through the handle matches its digest.
    EXPECT_EQ(scenarios::fingerprint(out.report), out.fingerprint);
  }
}

TEST(FleetSweep, SameItemsSameFingerprintsAcrossFleetShapes) {
  // The same batch through different worker counts and scratch settings
  // yields identical per-instance fingerprints.
  static const std::vector<NodeId> kSizes = {48};
  std::vector<std::uint64_t> seeds = {3, 4, 5, 6, 7, 8, 9, 10};
  std::vector<SweepItem> items;
  for (const char* name : {"crash_staggered_drip", "byz_silent_little"}) {
    auto expanded = scenarios::sweep(name, seeds, kSizes);
    items.insert(items.end(), expanded.begin(), expanded.end());
  }

  std::vector<std::uint64_t> reference;
  for (const FleetConfig config : {FleetConfig{1, false}, FleetConfig{2, true},
                                   FleetConfig{8, true}}) {
    FleetRunner fleet(config);
    const auto outcomes = scenarios::run_sweep(fleet, items);
    std::vector<std::uint64_t> prints;
    for (const auto& out : outcomes) prints.push_back(out.fingerprint);
    if (reference.empty()) {
      reference = prints;
    } else {
      EXPECT_EQ(reference, prints)
          << "threads=" << config.threads << " reuse=" << config.reuse_scratch;
    }
  }
}

// ---- sweep expansion -------------------------------------------------------

TEST(Sweep, ExpandsSeedBySizeGrid) {
  const std::vector<std::uint64_t> seeds = {1, 2, 3};
  const std::vector<NodeId> sizes = {48, 96};
  const auto items = scenarios::sweep("crash_staggered_drip", seeds, sizes);
  ASSERT_EQ(items.size(), 6u);
  const auto* scenario = scenarios::find_scenario("crash_staggered_drip");
  for (const auto& item : items) {
    EXPECT_EQ(item.scenario, scenario);
    EXPECT_EQ(item.t, scenario->scaled_t(item.n));
  }
  EXPECT_EQ(items[0].seed, 1u);
  EXPECT_EQ(items[0].n, 48);
  EXPECT_EQ(items[1].n, 96);
  EXPECT_EQ(items[2].seed, 2u);
}

TEST(Sweep, DefaultSizeWhenSizesEmpty) {
  const std::vector<std::uint64_t> seeds = {7};
  const auto items = scenarios::sweep("omission_send_quorum", seeds);
  ASSERT_EQ(items.size(), 1u);
  EXPECT_EQ(items[0].n, items[0].scenario->n);
  EXPECT_EQ(items[0].t, items[0].scenario->t);
}

TEST(Sweep, ScaledBudgetKeepsRatioAndFloors) {
  const auto* s = scenarios::find_scenario("crash_burst_flood");  // 600 / 100
  ASSERT_NE(s, nullptr);
  EXPECT_EQ(s->scaled_t(600), 100);
  EXPECT_EQ(s->scaled_t(300), 50);
  EXPECT_EQ(s->scaled_t(6), 1);
  EXPECT_EQ(s->scaled_t(1), 1);  // floored, never 0 faults
}

}  // namespace
}  // namespace lft
