// Scenario runner CLI: executes named (protocol × fault plan × size)
// scenarios from the registry in src/scenarios/.
//
//   lft_scenarios --list
//   lft_scenarios --all [--seed=N] [--threads=N] [--verify-determinism]
//                 [--telemetry] [--json=PATH]
//   lft_scenarios --run=name[,name...] [...]
//
// --threads=N pins the engine's stepper to N workers; without it (or with
// 0) each engine derives its worker count from the machine, as every
// library caller does.
//
// --telemetry runs each scenario with an obs::Registry attached
// (core::RunOptions::telemetry) and prints its engine round-time
// percentiles (lft_engine_step_ns) plus per-round delivery stats —
// strictly out-of-band: the Reports and fingerprints are bit-identical
// with and without it.
//
// --verify-determinism re-runs every scenario with the same seed (serial and
// with the parallel stepper) under trace recording and fails unless the
// executions are bit-identical — and when they are not, it uses
// forensics::diff to report the *first divergent round and digest component*
// instead of only the mismatched final fingerprints. --json=PATH writes one
// row per scenario in the BENCH_*.json artifact schema
// (bench/bench_json.hpp). Exit code is nonzero if any scenario's invariant
// (or the determinism check) fails.
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "bench_json.hpp"
#include "common/cli.hpp"
#include "forensics/replay.hpp"
#include "obs/obs.hpp"
#include "scenarios/scenarios.hpp"

namespace {

using lft::bench::JsonRows;
using lft::bench::WallTimer;
using lft::scenarios::all_scenarios;
using lft::scenarios::Scenario;
using lft::scenarios::ScenarioResult;

void print_usage() {
  std::printf(
      "usage: lft_scenarios --list\n"
      "       lft_scenarios (--all | --run=name[,name...])\n"
      "                     [--seed=N] [--threads=N] [--verify-determinism]\n"
      "                     [--telemetry] [--json=PATH]\n");
}

void list_scenarios() {
  std::printf("%-28s %-14s %-10s %6s %5s  %s\n", "name", "protocol", "fault", "n", "t",
              "description");
  for (const auto& s : all_scenarios()) {
    std::printf("%-28s %-14s %-10s %6d %5lld  %s\n", s.name.c_str(), s.protocol.c_str(),
                s.fault_kind.c_str(), s.n, static_cast<long long>(s.t),
                s.description.c_str());
  }
}

struct Options {
  bool list = false;
  bool all = false;
  bool verify_determinism = false;
  bool telemetry = false;
  std::uint64_t seed = 1;
  int threads = 0;  // 0 = the engine's derived default
  std::vector<std::string> names;
  std::string json_path;
};

bool parse_args(int argc, char** argv, Options& opt) {
  return lft::cli::ArgParser(argc, argv)
      .on_flag("--list", opt.list)
      .on_flag("--all", opt.all)
      .on_flag("--verify-determinism", opt.verify_determinism)
      .on_flag("--telemetry", opt.telemetry)
      .on_u64("--seed", opt.seed)
      .on_int("--threads", opt.threads, 0)
      .on_str("--json", opt.json_path)
      .on_csv("--run", opt.names)
      .parse();
}

/// Round-time + delivery summary from one scenario's engine telemetry.
void print_scenario_telemetry(const lft::obs::Snapshot& snapshot) {
  const auto* step = snapshot.find_histogram("lft_engine_step_ns");
  if (step == nullptr || step->data.count() == 0) {
    std::printf("    telemetry: no engine rounds recorded\n");
    return;
  }
  const auto us = [](std::uint64_t ns) { return static_cast<double>(ns) / 1e3; };
  std::printf("    round time: p50=%.1fus p90=%.1fus p99=%.1fus max=%.1fus (%llu rounds)",
              us(step->data.percentile(50.0)), us(step->data.percentile(90.0)),
              us(step->data.percentile(99.0)), us(step->data.max()),
              static_cast<unsigned long long>(step->data.count()));
  if (const auto* delivered = snapshot.find_histogram("lft_engine_round_delivered");
      delivered != nullptr && delivered->data.count() > 0) {
    std::printf("  delivered/round: p50=%llu max=%llu",
                static_cast<unsigned long long>(delivered->data.percentile(50.0)),
                static_cast<unsigned long long>(delivered->data.max()));
  }
  if (const auto* lost = snapshot.find_counter("lft_engine_lost_total");
      lost != nullptr && lost->value > 0) {
    std::printf("  lost=%llu", static_cast<unsigned long long>(lost->value));
  }
  std::printf("\n");
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  if (!parse_args(argc, argv, opt)) {
    print_usage();
    return 2;
  }
  if (opt.list) {
    list_scenarios();
    return 0;
  }
  std::vector<const Scenario*> selected;
  if (opt.all) {
    for (const auto& s : all_scenarios()) selected.push_back(&s);
  } else {
    for (const auto& name : opt.names) {
      const Scenario* s = lft::scenarios::find_scenario(name);
      if (s == nullptr) {
        std::fprintf(stderr, "unknown scenario: %s (see --list)\n", name.c_str());
        return 2;
      }
      selected.push_back(s);
    }
  }
  if (selected.empty()) {
    print_usage();
    return 2;
  }

  JsonRows rows;
  bool all_ok = true;
  std::printf("%-28s %-10s %8s %12s %6s %10s  %s\n", "name", "fault", "rounds", "messages",
              "ok", "wall_ms", "detail");
  for (const Scenario* s : selected) {
    lft::obs::Registry registry;
    lft::core::RunOptions run_options;
    run_options.threads = opt.threads;
    if (opt.telemetry) run_options.telemetry = &registry;
    const WallTimer timer;
    ScenarioResult result = s->run_at(opt.seed, s->n, s->t, run_options);
    const double wall_ms = timer.ms();
    const std::uint64_t digest = lft::scenarios::fingerprint(result.report);

    bool deterministic = true;
    if (opt.verify_determinism) {
      // Same seed, serial vs. parallel stepper: the recorded traces (and
      // with them the Reports) must be bit-identical. On a mismatch the
      // forensics diff names the first divergent round and component.
      const auto serial = lft::forensics::record(*s, opt.seed, /*threads=*/1);
      const auto parallel = lft::forensics::record(*s, opt.seed, /*threads=*/4);
      const auto divergence = lft::forensics::diff(serial.trace, parallel.trace);
      deterministic = !divergence.diverged &&
                      serial.trace.report_fingerprint == digest;
      if (divergence.diverged) {
        result.detail += " DETERMINISM-MISMATCH[" + divergence.detail + "]";
      } else if (!deterministic) {
        result.detail += " DETERMINISM-MISMATCH[primary run differs from serial re-run]";
      }
    }

    const bool ok = result.ok && deterministic;
    all_ok = all_ok && ok;
    std::printf("%-28s %-10s %8lld %12lld %6s %10.1f  %s\n", s->name.c_str(),
                s->fault_kind.c_str(), static_cast<long long>(result.report.rounds),
                static_cast<long long>(result.report.metrics.messages_total),
                ok ? "yes" : "NO", wall_ms, result.detail.c_str());
    if (opt.telemetry) print_scenario_telemetry(registry.snapshot());

    rows.begin_row();
    rows.field("scenario", s->name);
    rows.field("protocol", s->protocol);
    rows.field("fault", s->fault_kind);
    rows.field("n", static_cast<std::int64_t>(s->n));
    rows.field("t", s->t);
    rows.field("seed", static_cast<std::int64_t>(opt.seed));
    rows.field("rounds", static_cast<std::int64_t>(result.report.rounds));
    rows.field("messages", result.report.metrics.messages_total);
    rows.field("bits", result.report.metrics.bits_total);
    rows.field("wall_ms", wall_ms);
    rows.field("fingerprint", static_cast<std::int64_t>(digest));
    rows.field("ok", std::string(ok ? "yes" : "NO"));
  }

  if (!opt.json_path.empty() && !rows.write_file(opt.json_path)) {
    std::fprintf(stderr, "failed to write %s\n", opt.json_path.c_str());
    return 1;
  }
  return all_ok ? 0 : 1;
}
