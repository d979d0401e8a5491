// The two paper-scale simulation workloads, driven layer by layer through
// the public API so each layer's wall time is measured from outside:
//
//   build    core::make_few_crashes_process / core::GossipConfig::build plus
//            one process per node
//   install  sim::Engine construction, set_process, add_fault_injector
//   run      sim::Engine::run
//   eval     the protocol's invariant (ConsensusOutcome / GossipOutcome)
//   teardown destroying the engine and its processes
//
// consensus_1e5 is dominated by the engine's round loop and message plane
// (~70% of run is outside Process::step); gossip_2k is its mirror image
// (~90% inside step, payload-heavy), so an engine-loop change should move
// the first and not the second, and a stage or payload change the reverse.
#include <cmath>
#include <cstdio>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common.hpp"
#include "common/rng.hpp"
#include "core/consensus.hpp"
#include "core/gossip.hpp"
#include "graph/overlay.hpp"
#include "scenarios/scenarios.hpp"
#include "sim/engine.hpp"
#include "sim/faults.hpp"

namespace perfbench {

namespace sim = lft::sim;
namespace core = lft::core;
using lft::NodeId;

EngineTotals EngineTotals::from(const lft::obs::Snapshot& snapshot) {
  EngineTotals totals;
  totals.rounds = counter_value(snapshot, "lft_engine_rounds_total");
  totals.sent = counter_value(snapshot, "lft_engine_sent_total");
  totals.delivered = counter_value(snapshot, "lft_engine_delivered_total");
  totals.lost = counter_value(snapshot, "lft_engine_lost_total");
  totals.delayed = counter_value(snapshot, "lft_engine_delayed_total");
  totals.active_node_rounds = histogram_sum(snapshot, "lft_engine_round_active");
  totals.step_ns = histogram_sum(snapshot, "lft_engine_step_ns");
  if (const auto* row = snapshot.find_gauge("lft_engine_arena_bytes")) {
    totals.arena_bytes = static_cast<double>(row->value);
  }
  return totals;
}

void emit_engine_layers(Result& result, const EngineTotals& totals, double run_ms) {
  const double step_ms = totals.step_ns / 1e6;
  const double self_ms = run_ms - step_ms;
  result.metric("sim.run_ms", run_ms, "ms");
  result.metric("core.step_ms", step_ms, "ms");
  result.metric("sim.round_self_ms", self_ms, "ms");
  result.metric("core.ns_per_node_step",
                totals.active_node_rounds > 0 ? totals.step_ns / totals.active_node_rounds : 0.0,
                "ns");
  result.metric("sim.ns_per_msg", totals.sent > 0 ? self_ms * 1e6 / totals.sent : 0.0, "ns");
  result.metric("sim.rounds", totals.rounds, "count");
  result.metric("sim.active_node_rounds", totals.active_node_rounds, "count");
  result.metric("sim.messages", totals.sent, "count");
  result.metric("sim.delivered", totals.delivered, "count");
  result.metric("sim.lost", totals.lost, "count");
  result.metric("sim.delayed", totals.delayed, "count");
  result.metric("sim.arena_bytes", totals.arena_bytes, "bytes");
}

namespace {

/// A protocol instance as the layers see it: how to build its processes
/// and how to judge its finished execution.
struct Protocol {
  NodeId n = 0;
  std::int64_t t = 0;
  std::vector<sim::CrashEvent> crashes;
  std::function<std::vector<std::unique_ptr<sim::Process>>()> build;
  /// Checks the invariant; may move the report out and back.
  std::function<bool(const sim::Engine&, sim::Report&)> evaluate;
};

struct Execution {
  double build_ms = 0, install_ms = 0, run_ms = 0, eval_ms = 0, teardown_ms = 0;
  double exec_ms = 0;  ///< one outer timer around all five stages
  bool ok = false;
  std::uint64_t fingerprint = 0;
  sim::Metrics metrics;
  std::int64_t rounds = 0;
  EngineTotals totals;  ///< engine telemetry (traced executions only)
};

/// Runs one execution stage by stage; mirrors core::run_system's engine
/// configuration, so the Report equals the library runner's bit for bit.
Execution execute(const Protocol& protocol, bool traced) {
  Execution out;
  lft::obs::Registry registry;
  sim::Report report;
  const auto start = Clock::now();
  {
    const auto t0 = Clock::now();
    auto processes = protocol.build();
    const auto t1 = Clock::now();
    sim::EngineConfig config;
    config.crash_budget = protocol.t;
    config.omission_budget = protocol.t;
    config.telemetry = traced ? &registry : nullptr;
    auto engine = std::make_unique<sim::Engine>(protocol.n, config);
    for (NodeId v = 0; v < protocol.n; ++v) {
      engine->set_process(v, std::move(processes[static_cast<std::size_t>(v)]));
    }
    engine->add_fault_injector(sim::make_scheduled(protocol.crashes));
    const auto t2 = Clock::now();
    report = engine->run();
    const auto t3 = Clock::now();
    out.ok = protocol.evaluate(*engine, report);
    const auto t4 = Clock::now();
    engine.reset();
    processes.clear();
    const auto t5 = Clock::now();
    out.build_ms = ms_between(t0, t1);
    out.install_ms = ms_between(t1, t2);
    out.run_ms = ms_between(t2, t3);
    out.eval_ms = ms_between(t3, t4);
    out.teardown_ms = ms_between(t4, t5);
  }
  out.exec_ms = ms_between(start, Clock::now());
  out.fingerprint = lft::scenarios::fingerprint(report);
  out.metrics = report.metrics;
  out.rounds = report.rounds;
  if (traced) out.totals = EngineTotals::from(registry.snapshot());
  return out;
}

/// The shared timing loop of both simulation workloads.
///
/// Setup: `cold_setups` times, drop the overlay cache and build every
/// process (the cold construction), reporting the median as setup_s.
/// After one untimed warm execution, the timed phase repeats whole
/// executions of the same seed-determined instance until --seconds elapse
/// (at least two, so repeats are always compared). Traced runs alternate
/// untraced and traced executions, so the tracing overhead and the
/// traced-vs-untraced fingerprint check come from one process.
void run_simulation(const Options& options, const Protocol& protocol, int cold_setups,
                    Result& result) {
  std::vector<double> setup_s;
  for (int k = 0; k < cold_setups; ++k) {
    lft::graph::clear_overlay_cache();
    const auto t0 = Clock::now();
    auto processes = protocol.build();
    setup_s.push_back(ms_between(t0, Clock::now()) / 1e3);
  }

  // One untimed warm execution lets allocator pools and caches settle; its
  // fingerprint is the reference every timed execution must reproduce.
  const Execution warm = execute(protocol, false);
  result.check(warm.ok, options.workload + ": invariant failed");
  const std::uint64_t expected = options.break_check ? ~warm.fingerprint : warm.fingerprint;

  std::vector<Execution> plain;
  std::vector<Execution> traced;
  const auto phase_start = Clock::now();
  std::vector<double> pass_ms;
  for (int k = 0;; ++k) {
    const double elapsed_s = ms_between(phase_start, Clock::now()) / 1e3;
    const std::size_t done = plain.size() + traced.size();
    if (done >= 2 && elapsed_s >= options.seconds && (!options.trace || !traced.empty())) break;
    const bool trace_this = options.trace && k % 2 == 1;
    const auto pass_start = Clock::now();
    Execution e = execute(protocol, trace_this);
    result.check(e.ok, options.workload + ": invariant failed");
    result.check(e.fingerprint == expected,
                 options.workload + (trace_this ? ": traced" : ": repeated") +
                     " execution changed the Report fingerprint");
    pass_ms.push_back(ms_between(pass_start, Clock::now()));
    (trace_this ? traced : plain).push_back(e);
  }

  std::vector<double> exec_ms;
  double messages = 0;
  double exec_total_ms = 0;
  for (const auto& e : plain) {
    exec_ms.push_back(e.exec_ms);
    messages += static_cast<double>(e.metrics.messages_total);
    exec_total_ms += e.exec_ms;
  }

  if (!options.trace) {
    double pass_total_ms = 0;
    for (double v : pass_ms) pass_total_ms += v;
    std::printf("perfbench %s: %zu executions, %zu cold setups, rounds=%lld messages=%lld, "
                "exec_ms=",
                options.workload.c_str(), plain.size(), setup_s.size(),
                static_cast<long long>(plain.front().rounds),
                static_cast<long long>(plain.front().metrics.messages_total));
    for (double v : exec_ms) std::printf(" %.1f", v);
    std::printf("\n");
    result.metric("setup_s", median(setup_s), "s");
    result.metric("wall_s", median(pass_ms) / 1e3, "s");
    result.metric("exec_p50_ms", nearest_rank(exec_ms, 50), "ms");
    result.metric("exec_p90_ms", nearest_rank(exec_ms, 90), "ms");
    result.metric("msgs_per_s", messages / (exec_total_ms / 1e3), "1/s");
    // The operation a client of a simulation waits for is one whole
    // execution, so its rate and latency are the executions'.
    result.metric("req_per_s", static_cast<double>(pass_ms.size()) / (pass_total_ms / 1e3),
                  "1/s");
    result.metric("p50_ms", nearest_rank(pass_ms, 50), "ms");
    result.metric("p99_ms", nearest_rank(pass_ms, 99), "ms");
    return;
  }

  // Per-layer: medians over the traced executions.
  auto med = [&](double Execution::*field) {
    std::vector<double> v;
    for (const auto& e : traced) v.push_back(e.*field);
    return median(v);
  };
  const double build_ms = med(&Execution::build_ms);
  const double run_ms = med(&Execution::run_ms);
  result.metric("graph.cold_build_s", median(setup_s) - build_ms / 1e3, "s");
  result.metric("core.build_ms", build_ms, "ms");
  result.metric("sim.install_ms", med(&Execution::install_ms), "ms");
  result.metric("core.eval_ms", med(&Execution::eval_ms), "ms");
  result.metric("sim.teardown_ms", med(&Execution::teardown_ms), "ms");
  // Counts are seed-determined and identical across executions; the step
  // time is the engine's own Σ step_ns of the median-run execution.
  const Execution* mid = &traced.front();
  for (const auto& e : traced) {
    if (std::abs(e.run_ms - run_ms) < std::abs(mid->run_ms - run_ms)) mid = &e;
  }
  emit_engine_layers(result, mid->totals, mid->run_ms);
  result.require(mid->totals.step_ns / 1e6 <= mid->run_ms,
                 "engine step time exceeds the Engine::run wall around it");

  // Reconciliation: the five stage timers add back to the outer timer.
  constexpr double kSimTolerance = 0.01;
  double worst = 0;
  for (const auto& e : traced) {
    const double parts = e.build_ms + e.install_ms + e.run_ms + e.eval_ms + e.teardown_ms;
    worst = std::max(worst, std::abs(e.exec_ms - parts) / e.exec_ms);
  }
  result.metric("recon.sim_residual_frac", worst, "fraction");
  result.require(worst <= kSimTolerance,
                 "build+install+run+eval+teardown misses the execution wall by more than 1%");

  std::vector<double> traced_exec;
  for (const auto& e : traced) traced_exec.push_back(e.exec_ms);
  result.metric("trace.overhead_frac", median(traced_exec) / median(exec_ms) - 1.0, "fraction");

  const auto& m = mid->metrics;
  const double n = static_cast<double>(protocol.n);
  result.metric("paper.msgs_per_n", static_cast<double>(m.messages_total) / n, "count");
  result.metric("paper.bits_per_n", static_cast<double>(m.bits_total) / n, "bits");
  result.metric("paper.rounds_per_bound",
                static_cast<double>(mid->rounds) /
                    (static_cast<double>(protocol.t) + std::log2(n)),
                "ratio");
}

std::vector<int> binary_inputs(NodeId n, std::uint64_t seed) {
  lft::Rng rng(seed);
  std::vector<int> inputs(static_cast<std::size_t>(n));
  for (auto& b : inputs) b = static_cast<int>(rng.uniform(2));
  return inputs;
}

}  // namespace

void run_consensus_1e5(const Options& options, Result& result) {
  constexpr NodeId kN = 100000;
  constexpr std::int64_t kT = 5000;
  const auto params = core::ConsensusParams::practical(kN, kT);
  const auto inputs =
      std::make_shared<const std::vector<int>>(binary_inputs(kN, derive_seed(options.seed, 1)));

  Protocol protocol;
  protocol.n = kN;
  protocol.t = kT;
  // All t victims crash at uniform random rounds within the first 5t.
  protocol.crashes =
      sim::random_crash_schedule(kN, kT, 0, 5 * kT, 0.0, derive_seed(options.seed, 2));
  protocol.build = [params, inputs] {
    std::vector<std::unique_ptr<sim::Process>> processes(static_cast<std::size_t>(kN));
    for (NodeId v = 0; v < kN; ++v) {
      processes[static_cast<std::size_t>(v)] =
          core::make_few_crashes_process(params, v, (*inputs)[static_cast<std::size_t>(v)]);
    }
    return processes;
  };
  protocol.evaluate = [inputs](const sim::Engine&, sim::Report& report) {
    auto outcome = core::evaluate_consensus(std::move(report), *inputs);
    report = std::move(outcome.report);
    return outcome.all_good();
  };
  run_simulation(options, protocol, /*cold_setups=*/3, result);
}

void run_gossip_2k(const Options& options, Result& result) {
  constexpr NodeId kN = 2048;
  constexpr std::int64_t kT = 16;  // ≈ n / log2(n)^2
  const auto params = core::GossipParams::practical(kN, kT);
  auto rumors = std::make_shared<std::vector<std::uint64_t>>(static_cast<std::size_t>(kN));
  lft::Rng rng(derive_seed(options.seed, 1));
  for (auto& r : *rumors) r = rng.next();

  Protocol protocol;
  protocol.n = kN;
  protocol.t = kT;
  protocol.crashes =
      sim::random_crash_schedule(kN, kT, 0, 4 * kT + 20, 0.0, derive_seed(options.seed, 2));
  protocol.build = [params, rumors] {
    const auto cfg = core::GossipConfig::build(params);
    std::vector<std::unique_ptr<sim::Process>> processes(static_cast<std::size_t>(kN));
    for (NodeId v = 0; v < kN; ++v) {
      processes[static_cast<std::size_t>(v)] =
          std::make_unique<core::GossipProcess>(cfg, v, (*rumors)[static_cast<std::size_t>(v)]);
    }
    return processes;
  };
  // The problem's conditions, as core::run_gossip evaluates them.
  protocol.evaluate = [rumors](const sim::Engine& engine, sim::Report& report) {
    core::GossipOutcome out;
    out.termination = report.completed;
    out.condition1 = out.condition2 = out.rumors_intact = true;
    for (NodeId v = 0; v < kN; ++v) {
      const auto& status = report.nodes[static_cast<std::size_t>(v)];
      if (status.crashed || status.omission) continue;
      const auto& state = static_cast<const core::GossipProcess&>(engine.process(v)).state();
      if (!state.decided) {
        out.termination = false;
        continue;
      }
      for (NodeId j = 0; j < kN; ++j) {
        const auto& js = report.nodes[static_cast<std::size_t>(j)];
        const bool never_sent = js.crashed && js.sends == 0;
        const bool operational = !js.crashed && !js.omission;
        const bool holds = state.extant.contains(j);
        if (never_sent && j != v && holds) out.condition1 = false;
        if (operational && !holds) out.condition2 = false;
        if (holds && state.extant.rumor(j) != (*rumors)[static_cast<std::size_t>(j)]) {
          out.rumors_intact = false;
        }
      }
    }
    return out.all_good();
  };
  run_simulation(options, protocol, /*cold_setups=*/3, result);
}

}  // namespace perfbench
