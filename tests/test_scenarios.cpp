// The scenario registry is a contract shared by tests, benches, the CLI
// runner, and CI: every named scenario must hold its stated invariant and be
// a deterministic function of (seed, threads) — same seed gives bit-identical
// Reports, including with the engine's parallel stepper. The timing-fault
// catalogue additionally holds the stronger digest-stream bar: every
// delay/GST scenario's full per-round RoundDigest sequence is bit-identical
// at 1, 2, and 4 engine threads.
#include <gtest/gtest.h>

#include <cstdint>
#include <set>
#include <string>
#include <vector>

#include "forensics/replay.hpp"
#include "forensics/trace.hpp"
#include "obs/obs.hpp"
#include "scenarios/scenarios.hpp"
#include "test_util.hpp"

namespace lft::scenarios {
namespace {

TEST(ScenarioRegistry, AtLeastFiftyScenariosSpanningAllFaultClasses) {
  const auto& all = all_scenarios();
  EXPECT_GE(all.size(), 50u);
  std::set<std::string> kinds;
  std::set<std::string> names;
  for (const auto& s : all) {
    kinds.insert(s.fault_kind);
    EXPECT_TRUE(names.insert(s.name).second) << "duplicate scenario name " << s.name;
    EXPECT_GT(s.n, 0);
    EXPECT_TRUE(s.run_at != nullptr) << s.name;
  }
  EXPECT_TRUE(kinds.count("crash")) << "registry must cover the crash model";
  EXPECT_TRUE(kinds.count("omission"));
  EXPECT_TRUE(kinds.count("partition"));
  EXPECT_TRUE(kinds.count("byzantine"));
  EXPECT_TRUE(kinds.count("delay")) << "registry must cover timing faults";
  EXPECT_TRUE(kinds.count("gst")) << "registry must cover GST partial synchrony";
}

TEST(ScenarioRegistry, CrashIsolateLittleRunsWithoutCrashBudget) {
  // At t = 0 there is a single little node: the plan asks for the
  // protocol's own little overlay (degree at least 1) and crashes nobody.
  const Scenario* s = find_scenario("crash_isolate_little");
  ASSERT_NE(s, nullptr);
  const auto result = s->run_at(/*seed=*/1, s->n, /*t=*/0, {});
  EXPECT_TRUE(result.ok) << result.detail;
  EXPECT_EQ(result.report.crashed_count(), 0);
}

TEST(ScenarioRegistry, FindByName) {
  EXPECT_NE(find_scenario("crash_burst_flood"), nullptr);
  EXPECT_NE(find_scenario("gst_early_stabilize"), nullptr);
  EXPECT_EQ(find_scenario("no_such_scenario"), nullptr);
}

class ScenarioSweep : public ::testing::TestWithParam<int> {};

TEST_P(ScenarioSweep, InvariantHoldsAndSeedIsDeterministic) {
  const auto& s = all_scenarios()[static_cast<std::size_t>(GetParam())];
  const auto first = s.run(/*seed=*/1, /*threads=*/1);
  EXPECT_TRUE(first.ok) << s.name << ": " << first.detail;
  // Same seed, fresh run: bit-identical Report.
  const auto second = s.run(/*seed=*/1, /*threads=*/1);
  EXPECT_EQ(fingerprint(first.report), fingerprint(second.report)) << s.name;
  // Another seed must still satisfy the invariant.
  const auto other = s.run(/*seed=*/7, /*threads=*/1);
  EXPECT_TRUE(other.ok) << s.name << " seed 7: " << other.detail;
}

TEST_P(ScenarioSweep, ParallelStepperIsBitIdentical) {
  const auto& s = all_scenarios()[static_cast<std::size_t>(GetParam())];
  const auto serial = s.run(/*seed=*/3, /*threads=*/1);
  const auto parallel = s.run(/*seed=*/3, /*threads=*/4);
  EXPECT_EQ(fingerprint(serial.report), fingerprint(parallel.report)) << s.name;
  EXPECT_EQ(serial.ok, parallel.ok) << s.name;
}

INSTANTIATE_TEST_SUITE_P(All, ScenarioSweep,
                         ::testing::Range(0, static_cast<int>(all_scenarios().size())),
                         [](const auto& info) {
                           return all_scenarios()[static_cast<std::size_t>(info.param)].name;
                         });

// ---- timing-fault catalogue: digest-stream determinism ---------------------

/// Whether a scenario belongs to the timing-fault catalogue (delay/GST fault
/// class or the min-flood harness the catalogue is built on).
bool is_timing_scenario(const Scenario& s) {
  return s.fault_kind == "delay" || s.fault_kind == "gst" || s.protocol == "min_flood";
}

TEST(TimingFaults, DigestStreamBitIdenticalAtOneTwoAndFourThreads) {
  // The fingerprint sweep above certifies the final Report; the timing
  // catalogue also holds the per-round bar: the full RoundDigest stream —
  // including the v2 `delayed` and `delays` fields — must be bit-identical
  // across thread counts, because delayed injection participates in the
  // deterministic delivery sort.
  int covered = 0;
  for (const auto& s : all_scenarios()) {
    if (!is_timing_scenario(s)) continue;
    ++covered;
    const auto serial = forensics::record(s, /*seed=*/3, /*threads=*/1);
    EXPECT_TRUE(serial.result.ok) << s.name << ": " << serial.result.detail;
    for (const int threads : {2, 4}) {
      const auto threaded = forensics::record(s, /*seed=*/3, threads);
      const auto divergence = forensics::diff(serial.trace, threaded.trace);
      EXPECT_FALSE(divergence.diverged)
          << s.name << " at " << threads << " threads: " << divergence.detail;
      EXPECT_EQ(threaded.trace.report_fingerprint, serial.trace.report_fingerprint)
          << s.name;
    }
  }
  // The catalogue this PR ships: 28 delay/GST/min-flood scenarios.
  EXPECT_GE(covered, 28);
}

TEST(TimingFaults, DelayScenariosParkTrafficAndTheNoopParksNone) {
  // Sanity on the digest semantics: a real delay rule parks messages
  // (delayed > 0 somewhere), while the armed-but-zero-lag rule of
  // delay_zero_noop must never park anything — its executions take the
  // delay plane's code path but stay round-synchronous.
  const auto parked_total = [](const std::string& name) {
    const auto* s = find_scenario(name);
    EXPECT_NE(s, nullptr) << name;
    const auto run = forensics::record(*s, /*seed=*/1, /*threads=*/1);
    EXPECT_TRUE(run.result.ok) << name << ": " << run.result.detail;
    std::uint64_t parked = 0;
    for (const auto& d : run.trace.rounds) parked += d.delayed;
    return parked;
  };
  EXPECT_GT(parked_total("delay_fixed_pipe"), 0u);
  EXPECT_GT(parked_total("gst_late_stabilize"), 0u);
  EXPECT_EQ(parked_total("delay_zero_noop"), 0u);
}

// ---- telemetry plane: strictly out-of-band ---------------------------------

/// Records one execution with a trace sink and (optionally) a telemetry
/// registry attached, returning the full digest stream + fingerprint.
forensics::RecordedRun record_with_telemetry(const Scenario& s, std::uint64_t seed,
                                             int threads, obs::Registry* registry) {
  forensics::TraceRecorder recorder;
  core::RunOptions options;
  options.threads = threads;
  options.trace = &recorder;
  options.telemetry = registry;
  forensics::RecordedRun run;
  run.result = s.run_at(seed, s.n, s.t, options);
  run.trace = recorder.take();
  run.trace.report_fingerprint = fingerprint(run.result.report);
  return run;
}

TEST(Telemetry, AttachingARegistryNeverChangesAReportBit) {
  // The observability contract: EngineConfig::telemetry is strictly
  // out-of-band. For one scenario per protocol (covering every runner that
  // plumbs RunOptions::telemetry into the engine), the full RoundDigest
  // stream and Report fingerprint must be bit-identical with telemetry off,
  // on, and on-with-parallel-stepper — while the registry itself proves the
  // instrumentation actually ran.
  std::set<std::string> protocols_seen;
  for (const auto& s : all_scenarios()) {
    if (!protocols_seen.insert(s.protocol).second) continue;  // first per protocol
    const auto baseline = record_with_telemetry(s, /*seed=*/5, /*threads=*/1, nullptr);
    EXPECT_TRUE(baseline.result.ok) << s.name << ": " << baseline.result.detail;

    obs::Registry serial_registry;
    const auto with_tele =
        record_with_telemetry(s, /*seed=*/5, /*threads=*/1, &serial_registry);
    const auto divergence = forensics::diff(baseline.trace, with_tele.trace);
    EXPECT_FALSE(divergence.diverged)
        << s.name << " diverged with telemetry on: " << divergence.detail;
    EXPECT_EQ(with_tele.trace.report_fingerprint, baseline.trace.report_fingerprint)
        << s.name;

    // The registry really recorded: one step_ns sample per executed round,
    // and the rounds counter matches the Report exactly.
    const auto snapshot = serial_registry.snapshot();
    const auto* rounds = snapshot.find_counter("lft_engine_rounds_total");
    ASSERT_NE(rounds, nullptr) << s.name;
    EXPECT_EQ(rounds->value,
              static_cast<std::uint64_t>(baseline.result.report.rounds))
        << s.name;
    const auto* step = snapshot.find_histogram("lft_engine_step_ns");
    ASSERT_NE(step, nullptr) << s.name;
    EXPECT_EQ(step->data.count(), rounds->value) << s.name;

    obs::Registry parallel_registry;
    const auto parallel =
        record_with_telemetry(s, /*seed=*/5, /*threads=*/4, &parallel_registry);
    const auto parallel_divergence = forensics::diff(baseline.trace, parallel.trace);
    EXPECT_FALSE(parallel_divergence.diverged)
        << s.name << " diverged with telemetry + parallel stepper: "
        << parallel_divergence.detail;
    EXPECT_EQ(parallel.trace.report_fingerprint, baseline.trace.report_fingerprint)
        << s.name;
  }
  EXPECT_GE(protocols_seen.size(), 5u) << "protocol coverage shrank";
}

TEST(Telemetry, FleetAggregationIsOutOfBandToo) {
  // Fleet mode: instances run with per-slot registries handed out by the
  // runner; every fingerprint must match the serial telemetry-free run, and
  // the merged fleet snapshot must account for every executed round.
  const auto* s = find_scenario("crash_gossip_window");
  ASSERT_NE(s, nullptr);
  const std::vector<std::uint64_t> seeds{1, 2, 3, 4, 5, 6};

  std::vector<std::uint64_t> expected_fingerprints;
  std::uint64_t expected_rounds = 0;
  for (const auto seed : seeds) {
    const auto solo = s->run(seed, /*threads=*/1);
    EXPECT_TRUE(solo.ok) << solo.detail;
    expected_fingerprints.push_back(fingerprint(solo.report));
    expected_rounds += static_cast<std::uint64_t>(solo.report.rounds);
  }

  sim::FleetConfig config;
  config.threads = 4;
  config.telemetry = true;
  sim::FleetRunner fleet(config);
  std::vector<sim::FleetRunner::Handle> handles;
  for (const auto seed : seeds) {
    handles.push_back(fleet.submit(sim::FleetJobObs(
        [s, seed](sim::EngineScratch* scratch, obs::Registry* registry) {
          core::RunOptions options;
          options.scratch = scratch;
          options.telemetry = registry;
          return s->run_at(seed, s->n, s->t, options).report;
        })));
  }
  fleet.wait_all();
  for (std::size_t i = 0; i < handles.size(); ++i) {
    EXPECT_EQ(fingerprint(handles[i].wait()), expected_fingerprints[i])
        << "seed " << seeds[i];
  }
  const auto merged = fleet.telemetry();
  const auto* rounds = merged.find_counter("lft_engine_rounds_total");
  ASSERT_NE(rounds, nullptr);
  EXPECT_EQ(rounds->value, expected_rounds);
  const auto* step = merged.find_histogram("lft_engine_step_ns");
  ASSERT_NE(step, nullptr);
  EXPECT_EQ(step->data.count(), expected_rounds);
}

}  // namespace
}  // namespace lft::scenarios
