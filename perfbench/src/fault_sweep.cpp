// fault_sweep: every registered scenario crossed with a set of seeds,
// each instance submitted as its own sim::FleetJob to a two-worker
// FleetRunner. The only workload that reaches omission, partition and link
// faults, takeovers, the delay queue and GST, AB-consensus signatures, and
// the fleet's stealing and scratch reuse. Instances are small (n = 96-600),
// so fixed per-execution costs matter here.
#include <cmath>
#include <cstdio>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common.hpp"
#include "graph/overlay.hpp"
#include "scenarios/scenarios.hpp"
#include "sim/fleet.hpp"

namespace perfbench {

namespace sim = lft::sim;
namespace scenarios = lft::scenarios;

namespace {

constexpr int kWorkers = 2;
constexpr int kSeedsPerSweep = 8;

// Every fault_kind the registry uses; "none" is its fault-free baseline.
const char* const kFaultKinds[] = {"crash", "omission", "partition", "link", "byzantine",
                                   "delay", "gst",      "mixed",     "none"};

/// One instance as the benchmark's own job wrapper saw it.
struct Instance {
  Clock::time_point submitted, started, finished;
  bool ok = false;
  std::uint64_t fingerprint = 0;
  double messages = 0, bits = 0, rounds = 0;
};

struct Sweep {
  double wall_ms = 0;
  std::vector<Instance> instances;
  std::int64_t steals = 0, adoptions = 0, recycles = 0;
};

/// Submits every item as its own job and blocks until the fleet drains.
Sweep run_sweep(sim::FleetRunner& fleet, const std::vector<scenarios::SweepItem>& items,
                bool traced) {
  Sweep sweep;
  sweep.instances.resize(items.size());
  const std::int64_t steals = fleet.stolen();
  const std::int64_t adoptions = fleet.scratch_adoptions();
  const std::int64_t recycles = fleet.scratch_recycles();
  const auto start = Clock::now();
  for (std::size_t i = 0; i < items.size(); ++i) {
    Instance& record = sweep.instances[i];
    const scenarios::SweepItem item = items[i];
    record.submitted = Clock::now();
    (void)fleet.submit(sim::FleetJobObs(
        [item, traced, &record](sim::EngineScratch* scratch, lft::obs::Registry* telemetry) {
          record.started = Clock::now();
          lft::core::RunOptions run_options;
          run_options.scratch = scratch;
          run_options.telemetry = traced ? telemetry : nullptr;
          scenarios::ScenarioResult r =
              item.scenario->run_at(item.seed, item.n, item.t, run_options);
          record.finished = Clock::now();
          record.ok = r.ok;
          record.fingerprint = scenarios::fingerprint(r.report);
          record.messages = static_cast<double>(r.report.metrics.messages_total);
          record.bits = static_cast<double>(r.report.metrics.bits_total);
          record.rounds = static_cast<double>(r.report.rounds);
          return std::move(r.report);
        }));
  }
  fleet.wait_all();
  sweep.wall_ms = ms_between(start, Clock::now());
  sweep.steals = fleet.stolen() - steals;
  sweep.adoptions = fleet.scratch_adoptions() - adoptions;
  sweep.recycles = fleet.scratch_recycles() - recycles;
  return sweep;
}

sim::FleetConfig fleet_config() {
  sim::FleetConfig config;
  config.threads = kWorkers;
  config.reuse_scratch = true;
  config.telemetry = true;  // jobs forward the registry only when traced
  return config;
}

double busy_ms(const Instance& i) { return ms_between(i.started, i.finished); }

}  // namespace

void run_fault_sweep(const Options& options, Result& result) {
  const auto& registry = scenarios::all_scenarios();
  // Scenario-major order: a scenario's seeds are consecutive, so the
  // round-robin dealing runs them on both workers at once and the sweep's
  // memory peak (its largest scenario, twice) does not hinge on timing.
  std::vector<scenarios::SweepItem> items;
  for (const auto& scenario : registry) {
    for (int s = 0; s < kSeedsPerSweep; ++s) {
      const std::uint64_t seed = derive_seed(options.seed, 100 + static_cast<std::uint64_t>(s));
      items.push_back({&scenario, seed, scenario.n, scenario.t});
    }
  }

  // Setup: a fresh fleet plus one cold pass over every scenario (overlay
  // cache dropped first), three times; the median is setup_s.
  std::vector<double> setup_s;
  std::vector<scenarios::SweepItem> cold_items;
  for (const auto& scenario : registry) {
    cold_items.push_back({&scenario, derive_seed(options.seed, 99), scenario.n, scenario.t});
  }
  for (int k = 0; k < 3; ++k) {
    lft::graph::clear_overlay_cache();
    const auto t0 = Clock::now();
    {
      sim::FleetRunner fleet(fleet_config());
      const Sweep cold = run_sweep(fleet, cold_items, false);
      for (const auto& i : cold.instances) {
        result.check(i.ok, "fault_sweep: cold instance invariant failed");
      }
    }
    setup_s.push_back(ms_between(t0, Clock::now()) / 1e3);
  }

  sim::FleetRunner fleet(fleet_config());
  std::vector<Sweep> plain, traced;
  std::vector<std::uint64_t> expected;
  const auto phase_start = Clock::now();
  for (int k = 0;; ++k) {
    const double elapsed_s = ms_between(phase_start, Clock::now()) / 1e3;
    if (plain.size() + traced.size() >= 2 && elapsed_s >= options.seconds &&
        (!options.trace || !traced.empty())) {
      break;
    }
    const bool trace_this = options.trace && k % 2 == 1;
    Sweep sweep = run_sweep(fleet, items, trace_this);
    if (k == 0) {
      for (const auto& i : sweep.instances) expected.push_back(i.fingerprint);
      if (options.break_check) expected.front() ^= 1;
    }
    for (std::size_t i = 0; i < items.size(); ++i) {
      const auto& inst = sweep.instances[i];
      const std::string what = "fault_sweep: " + items[i].scenario->name;
      result.check(inst.ok, what + " invariant failed");
      result.check(inst.fingerprint == expected[i],
                   what + (trace_this ? " traced" : " repeated") + " fingerprint changed");
    }
    (trace_this ? traced : plain).push_back(std::move(sweep));
  }

  std::vector<double> wall_ms;
  for (const auto& s : plain) wall_ms.push_back(s.wall_ms);

  if (!options.trace) {
    std::vector<double> exec_ms, latency_ms;
    double messages = 0, total_ms = 0;
    for (const auto& s : plain) {
      total_ms += s.wall_ms;
      for (const auto& i : s.instances) {
        exec_ms.push_back(busy_ms(i));
        latency_ms.push_back(ms_between(i.submitted, i.finished));
        messages += i.messages;
      }
    }
    std::printf("perfbench fault_sweep: %zu sweeps of %zu instances, %d workers, "
                "%zu cold setups, sweep_ms=",
                plain.size(), items.size(), fleet.threads(), setup_s.size());
    for (double v : wall_ms) std::printf(" %.1f", v);
    std::printf("\n");
    result.metric("setup_s", median(setup_s), "s");
    result.metric("wall_s", median(wall_ms) / 1e3, "s");
    result.metric("exec_p50_ms", nearest_rank(exec_ms, 50), "ms");
    result.metric("exec_p90_ms", nearest_rank(exec_ms, 90), "ms");
    result.metric("msgs_per_s", messages / (total_ms / 1e3), "1/s");
    result.metric("req_per_s", static_cast<double>(exec_ms.size()) / (total_ms / 1e3), "1/s");
    // Latency of an instance as its submitter sees it: submit -> finished.
    result.metric("p50_ms", nearest_rank(latency_ms, 50), "ms");
    result.metric("p99_ms", nearest_rank(latency_ms, 99), "ms");
    return;
  }

  const double sweeps = static_cast<double>(traced.size());
  std::vector<double> busy_frac, wait_ms, traced_wall;
  std::map<std::string, double> kind_ms;
  double busy_total = 0, steals = 0, adoptions = 0, recycles = 0;
  double messages = 0, bits = 0, nodes = 0, bound_ratio = 0, instances = 0;
  for (const auto& s : traced) {
    double busy = 0;
    for (std::size_t i = 0; i < items.size(); ++i) {
      const auto& inst = s.instances[i];
      busy += busy_ms(inst);
      wait_ms.push_back(ms_between(inst.submitted, inst.started));
      kind_ms[items[i].scenario->fault_kind] += busy_ms(inst);
      messages += inst.messages;
      bits += inst.bits;
      nodes += items[i].n;
      bound_ratio += inst.rounds / (static_cast<double>(items[i].t) +
                                    std::log2(static_cast<double>(items[i].n)));
      instances += 1;
    }
    busy_total += busy;
    busy_frac.push_back(busy / (kWorkers * s.wall_ms));
    steals += static_cast<double>(s.steals);
    adoptions += static_cast<double>(s.adoptions);
    recycles += static_cast<double>(s.recycles);
    traced_wall.push_back(s.wall_ms);
  }
  result.metric("fleet.busy_frac", median(busy_frac), "fraction");
  result.metric("fleet.queue_wait_p50_ms", nearest_rank(wait_ms, 50), "ms");
  result.metric("fleet.steals", steals / sweeps, "count");
  result.metric("fleet.recycle_frac", adoptions > 0 ? recycles / adoptions : 0.0, "fraction");
  double kinds_total = 0;
  for (const char* kind : kFaultKinds) {
    result.metric(std::string("scenarios.") + kind + "_ms", kind_ms[kind] / sweeps, "ms");
    kinds_total += kind_ms[kind];
  }
  result.require(std::abs(kinds_total - busy_total) <= 1e-6 * busy_total,
                 "fault_sweep: an instance has a fault kind outside the catalogue");
  for (double f : busy_frac) {
    result.require(f <= 1.0, "fault_sweep: workers busier than the sweep wall allows");
  }

  // Engine totals of the traced sweeps (only traced jobs forwarded the
  // fleet's per-slot registries), per sweep. sim.run_ms is the Σ of whole
  // run_at calls here: a scenario runner is opaque from outside.
  EngineTotals totals = EngineTotals::from(fleet.telemetry());
  for (double* field : {&totals.rounds, &totals.active_node_rounds, &totals.sent,
                        &totals.delivered, &totals.lost, &totals.delayed, &totals.step_ns}) {
    *field /= sweeps;
  }
  emit_engine_layers(result, totals, busy_total / sweeps);
  result.require(totals.step_ns / 1e6 <= busy_total / sweeps,
                 "fault_sweep: engine step time exceeds the instance wall around it");

  result.metric("trace.overhead_frac", median(traced_wall) / median(wall_ms) - 1.0, "fraction");
  result.metric("paper.msgs_per_n", messages / nodes, "count");
  result.metric("paper.bits_per_n", bits / nodes, "bits");
  result.metric("paper.rounds_per_bound", bound_ratio / instances, "ratio");
}

}  // namespace perfbench
