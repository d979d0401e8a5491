// The scenario registry is a contract shared by tests, benches, the CLI
// runner, and CI: every named scenario must hold its stated invariant and be
// a deterministic function of (seed, threads) — same seed gives bit-identical
// Reports, including with the engine's parallel stepper. The timing-fault
// catalogue additionally holds the stronger digest-stream bar: every
// delay/GST scenario's full per-round RoundDigest sequence is bit-identical
// at 1, 2, and 4 engine threads. Cross-build pins hold every scenario's
// seed-1 fingerprint and digest stream to recorded reference values.
#include <gtest/gtest.h>

#include <cstdint>
#include <iterator>
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

// ---- cross-build pins ------------------------------------------------------

/// One scenario's reference execution at seed 1 and its registered size:
/// the Report fingerprint and test::digest_stream_hash of its RoundDigest
/// stream.
struct Pin {
  const char* name;
  std::uint64_t fingerprint;
  std::uint64_t digests;
};

// Recorded from the engine that still delivered fault-free rounds through a
// separate fast path; the single compaction pass must reproduce every value.
// Refresh a literal only with a change that is meant to alter an execution,
// and say which and why in the commit.
constexpr Pin kPins[] = {
    {"crash_burst_flood", 0x9fe22e4b28f298c9ULL, 0xcbb7c0c5d6e38638ULL},
    {"crash_staggered_drip", 0x7ebc5703b5758c83ULL, 0x43b071ffff8e28dcULL},
    {"crash_partial_sends", 0x16ea39d4b9c8695bULL, 0x4ed05ccbf664499bULL},
    {"crash_isolate_little", 0x093a19361c5d1de2ULL, 0xaef22eb6c1cf33c0ULL},
    {"crash_probe_hubs", 0x419752ebe75a1f3aULL, 0x99c9b36228f353efULL},
    {"crash_gossip_window", 0x7245743d589b83beULL, 0x0033983adf3afec4ULL},
    {"omission_send_quorum", 0x35dd85968a29bb3fULL, 0x0887a60d197b425aULL},
    {"omission_recv_blackout", 0x7ae2c935eba3eb3dULL, 0xf68ce04bccfeb3c1ULL},
    {"omission_flood_window", 0x5d71a0382b88e34bULL, 0xf81609289f777c41ULL},
    {"omission_gossip_mixed", 0xd626050a677331e1ULL, 0xe353bed2e6777d3bULL},
    {"partition_split_heal", 0x8e7a9d12e770d5cbULL, 0x1ea35437d347946cULL},
    {"partition_little_halves", 0x8e7a9d12e770d5cbULL, 0xa31aca362752ec1cULL},
    {"link_flaky_mesh", 0x8e7a9d12e770d5cbULL, 0x174718c9bfac8401ULL},
    {"byz_silent_little", 0xac4568f96e8e224cULL, 0x30a6a703bae23d89ULL},
    {"byz_equivocators", 0x7d67b371865adf6fULL, 0x6e5105dbf80d87ddULL},
    {"byz_flooders", 0xceaca1c9786f84dfULL, 0x64213763d5b11c1cULL},
    {"byz_midrun_takeover", 0x358ac490bd1bea78ULL, 0x1fd461d4abeb4abfULL},
    {"mixed_crash_omission_split", 0x919635498c050877ULL, 0x0c27c617fea3cec9ULL},
    {"mixed_byz_crash_ab", 0xbb2015e4eacffc48ULL, 0x389b8ca1a02548efULL},
    {"checkpoint_crash_boundary", 0x45ae69108591573eULL, 0xfc57a571053105d5ULL},
    {"checkpoint_omission_gossip", 0x71bd1f38b360b49aULL, 0xfb15704601293e80ULL},
    {"delay_fixed_pipe", 0x7121914983182054ULL, 0x33d2c2c3615f7057ULL},
    {"delay_uniform_jitter", 0xc3d1d2e7d0a01c1dULL, 0x065a9c9a17bcf993ULL},
    {"delay_burst_window", 0xed7096ef04bff863ULL, 0x43f25b7ea1c708e9ULL},
    {"delay_per_link_mesh", 0x8a3b4242a90f2f30ULL, 0xb4db8b86e4683624ULL},
    {"delay_asym_halves", 0xe8f5053a597a8ef1ULL, 0xa7734f46e472a825ULL},
    {"delay_horizon_edge", 0x0036b8c48f4f8409ULL, 0x4701bf516aaf5b45ULL},
    {"delay_parallel_flood", 0x735093c66b8fe345ULL, 0x03a1c590a975e79cULL},
    {"delay_zero_noop", 0x2cc487237f2f3377ULL, 0x1c94314962e48877ULL},
    {"gst_early_stabilize", 0x340c77d7c677e2dfULL, 0x0d9eaecd89243893ULL},
    {"gst_late_stabilize", 0x69b270c1a574116fULL, 0xd0efc16dfa45b3b3ULL},
    {"gst_tight_delta", 0x73d6b02300b22f83ULL, 0xd99f3d1c3c76fa36ULL},
    {"gst_wide_delta", 0x9cc4d264e21877f8ULL, 0x11200bd801b4d2e8ULL},
    {"gst_beyond_horizon", 0x7206b1d7b6dab6a2ULL, 0xfc12140ae5e3b93fULL},
    {"gst_decide_boundary", 0x011c69bd9ff699dfULL, 0xb6e84c7d0f125d15ULL},
    {"early_decide_fastpath", 0x557704348b4e4f26ULL, 0xf0e94865b2dfa34bULL},
    {"early_decide_staggered", 0x0de967cf3f4a475aULL, 0x30ecbefc00fc118fULL},
    {"early_decide_gst", 0xaa6643b66f38dcdfULL, 0xc4fc66ebdd1ce182ULL},
    {"delay_crash_burst", 0x8b33724c5d6d9e17ULL, 0xf5c4409f2b3b3916ULL},
    {"delay_crash_staggered", 0xf1db0568568137b4ULL, 0xe80a3a6d96e057cdULL},
    {"delay_partition_overlap", 0x2cc487237f2f3377ULL, 0x82671782ba4f93d4ULL},
    {"delay_link_storm", 0x5b7256c74cb53029ULL, 0xe1d91e0f01b1479dULL},
    {"delay_omission_mix", 0x6af55e3c11fab74dULL, 0x8f3d98aea126892bULL},
    {"gst_crash_compose", 0xa9117e824d93b218ULL, 0x826242dc93a95c0dULL},
    {"gst_partition_compose", 0xa9e1cfd1a338dcb0ULL, 0xcbd6302d052137f9ULL},
    {"gst_omission_compose", 0x147b600aed4e9014ULL, 0xb9cef74b88f63d22ULL},
    {"delay_takeover_silence", 0x298f1474ff48b4c7ULL, 0x17872ffab7baabaeULL},
    {"gst_churn_everything", 0x1290597bb3c67e61ULL, 0x56ea81a87e7e65ebULL},
    {"delay_gossip_window", 0xd9caf12ba063b386ULL, 0xde28b59b738d04d7ULL},
    {"service_slot_commit", 0xe929f0bef9e182a9ULL, 0x47f96b98621b9992ULL},
};

TEST(ScenarioPins, FingerprintsAndDigestStreamsMatchReferenceValues) {
  // Every identity test above compares two configurations of one build, so
  // a change that shifts every configuration alike passes them all. These
  // literals do not move with the build.
  ASSERT_EQ(std::size(kPins), all_scenarios().size()) << "registry changed: re-pin";
  for (const Pin& pin : kPins) {
    const Scenario* s = find_scenario(pin.name);
    ASSERT_NE(s, nullptr) << pin.name;
    const auto run = forensics::record(*s, /*seed=*/1, /*threads=*/1);
    EXPECT_TRUE(run.result.ok) << pin.name << ": " << run.result.detail;
    EXPECT_EQ(run.trace.report_fingerprint, pin.fingerprint) << pin.name;
    EXPECT_EQ(test::digest_stream_hash(run.trace.rounds), pin.digests) << pin.name;
  }
}

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
