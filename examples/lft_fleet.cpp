// Fleet sweep driver: expands registered scenarios across seed and size axes
// and executes the resulting instances over the instance-multiplexed
// FleetRunner (src/sim/fleet.hpp).
//
//   lft_fleet --list
//   lft_fleet (--scenario=name[,name...] | --all)
//             [--seeds=N] [--seed-base=B] [--sizes=a,b,c] [--threads=T]
//             [--verify-serial=K] [--json=PATH]
//
// Every (scenario, seed, size) instance runs serially on one fleet worker,
// so its Report is bit-identical to running it alone; --verify-serial=K
// re-runs K spot-check instances one-at-a-time and fails on any fingerprint
// mismatch — and on a mismatch it re-runs the instance twice under trace
// recording and reports the first divergent round and digest component
// (forensics::diff) instead of only the failing fingerprint. The summary
// aggregates per scenario (p50/p95 rounds, messages, per-instance wall
// time) plus fleet totals (instances/sec, work steals, scratch
// adoption/recycle counts); --json=PATH writes one "fleet" row, one
// "aggregate" row per scenario, and one "instance" row per execution (with
// its fingerprint) in the BENCH_*.json artifact schema. Exit code is
// nonzero if any instance's invariant (or the serial spot check) fails.
#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <string>
#include <vector>

#include "bench_json.hpp"
#include "common/cli.hpp"
#include "forensics/replay.hpp"
#include "scenarios/scenarios.hpp"
#include "sim/fleet.hpp"

namespace {

using lft::NodeId;
using lft::bench::JsonRows;
using lft::bench::WallTimer;
using lft::scenarios::all_scenarios;
using lft::scenarios::Scenario;
using lft::scenarios::SweepItem;
using lft::scenarios::SweepOutcome;

void print_usage() {
  std::printf(
      "usage: lft_fleet --list\n"
      "       lft_fleet (--scenario=name[,name...] | --all)\n"
      "                 [--seeds=N] [--seed-base=B] [--sizes=a,b,c] [--threads=T]\n"
      "                 [--verify-serial=K] [--json=PATH]\n");
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
  std::int64_t seeds = 8;
  std::uint64_t seed_base = 1;
  int threads = 4;
  std::int64_t verify_serial = 0;
  std::vector<std::string> names;
  std::vector<NodeId> sizes;
  std::string json_path;
};

bool parse_args(int argc, char** argv, Options& opt) {
  return lft::cli::ArgParser(argc, argv)
      .on_flag("--list", opt.list)
      .on_flag("--all", opt.all)
      .on_csv("--scenario", opt.names)
      .on_i64("--seeds", opt.seeds, 1)
      .on_u64("--seed-base", opt.seed_base)
      .on_value("--sizes",
                [&opt](const std::string& csv) {
                  for (const auto& part : lft::cli::split_csv(csv)) {
                    std::int64_t size = 0;
                    if (!lft::cli::parse_i64(part, size) || size < 8 ||
                        size > std::numeric_limits<NodeId>::max()) {
                      return false;
                    }
                    opt.sizes.push_back(static_cast<NodeId>(size));
                  }
                  return true;
                })
      .on_int("--threads", opt.threads, 1)
      .on_value(
          "--verify-serial",
          [&opt](const std::string& value) {
            if (value.empty()) {
              opt.verify_serial = 8;
              return true;
            }
            return lft::cli::parse_i64(value, opt.verify_serial);
          },
          /*allow_bare=*/true)
      .on_str("--json", opt.json_path)
      .parse();
}

/// Nearest-rank percentile of a sorted sample: the smallest element with at
/// least p% of the sample at or below it (p in [0, 100]).
template <class T>
T percentile(const std::vector<T>& sorted, double p) {
  if (sorted.empty()) return T{};
  const double rank = std::ceil(p / 100.0 * static_cast<double>(sorted.size())) - 1.0;
  const auto index = static_cast<std::size_t>(std::max(0.0, rank));
  return sorted[std::min(index, sorted.size() - 1)];
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
      // Dedupe repeated names (first mention wins) so the per-scenario
      // aggregation below counts every instance exactly once.
      if (std::find(selected.begin(), selected.end(), s) == selected.end()) {
        selected.push_back(s);
      }
    }
  }
  if (selected.empty()) {
    print_usage();
    return 2;
  }

  // Expand the seed x size grid for every selected scenario into one mixed
  // instance queue.
  std::vector<std::uint64_t> seeds(static_cast<std::size_t>(opt.seeds));
  for (std::size_t i = 0; i < seeds.size(); ++i) {
    seeds[i] = opt.seed_base + static_cast<std::uint64_t>(i);
  }
  std::vector<SweepItem> items;
  for (const Scenario* s : selected) {
    auto expanded = lft::scenarios::sweep(s->name, seeds, opt.sizes);
    items.insert(items.end(), expanded.begin(), expanded.end());
  }

  std::printf("fleet: %zu instances (%zu scenarios x %lld seeds x %zu sizes) on %d threads\n",
              items.size(), selected.size(), static_cast<long long>(opt.seeds),
              std::max<std::size_t>(1, opt.sizes.size()), opt.threads);

  lft::sim::FleetRunner fleet(lft::sim::FleetConfig{opt.threads, /*reuse_scratch=*/true});
  const WallTimer fleet_timer;
  const auto outcomes = lft::scenarios::run_sweep(fleet, items);
  fleet.wait_all();  // stats (steals, scratch counters) are exact after this
  const double fleet_wall_ms = fleet_timer.ms();
  const double instances_per_sec =
      fleet_wall_ms > 0.0 ? 1000.0 * static_cast<double>(items.size()) / fleet_wall_ms : 0.0;

  bool all_ok = true;

  // Per-scenario aggregates, in selection order.
  JsonRows rows;
  rows.begin_row();
  rows.field("kind", std::string("fleet"));
  rows.field("instances", static_cast<std::int64_t>(items.size()));
  rows.field("threads", static_cast<std::int64_t>(fleet.threads()));
  rows.field("wall_ms", fleet_wall_ms);
  rows.field("instances_per_sec", instances_per_sec);
  rows.field("stolen", fleet.stolen());
  rows.field("scratch_adoptions", fleet.scratch_adoptions());
  rows.field("scratch_recycles", fleet.scratch_recycles());

  std::printf("%-28s %9s %4s %10s %10s %12s %12s %10s %10s\n", "scenario", "instances", "ok",
              "p50_rnds", "p95_rnds", "p50_msgs", "p95_msgs", "p50_ms", "p95_ms");
  for (const Scenario* s : selected) {
    std::vector<std::int64_t> rounds;
    std::vector<std::int64_t> messages;
    std::vector<double> wall;
    std::int64_t ok_count = 0;
    std::int64_t count = 0;
    for (const auto& out : outcomes) {
      if (out.item.scenario != s) continue;
      ++count;
      ok_count += out.ok ? 1 : 0;
      rounds.push_back(static_cast<std::int64_t>(out.report.rounds));
      messages.push_back(out.report.metrics.messages_total);
      wall.push_back(out.wall_ms);
    }
    std::sort(rounds.begin(), rounds.end());
    std::sort(messages.begin(), messages.end());
    std::sort(wall.begin(), wall.end());
    const bool scenario_ok = ok_count == count;
    all_ok = all_ok && scenario_ok;
    std::printf("%-28s %9lld %4s %10lld %10lld %12lld %12lld %10.2f %10.2f\n", s->name.c_str(),
                static_cast<long long>(count), scenario_ok ? "yes" : "NO",
                static_cast<long long>(percentile(rounds, 50)),
                static_cast<long long>(percentile(rounds, 95)),
                static_cast<long long>(percentile(messages, 50)),
                static_cast<long long>(percentile(messages, 95)), percentile(wall, 50),
                percentile(wall, 95));

    rows.begin_row();
    rows.field("kind", std::string("aggregate"));
    rows.field("scenario", s->name);
    rows.field("fault", s->fault_kind);
    rows.field("instances", count);
    rows.field("ok_instances", ok_count);
    rows.field("p50_rounds", percentile(rounds, 50));
    rows.field("p95_rounds", percentile(rounds, 95));
    rows.field("p50_messages", percentile(messages, 50));
    rows.field("p95_messages", percentile(messages, 95));
    rows.field("p50_wall_ms", percentile(wall, 50));
    rows.field("p95_wall_ms", percentile(wall, 95));
    rows.field("ok", std::string(scenario_ok ? "yes" : "NO"));
  }
  std::printf(
      "fleet wall: %.1f ms, %.1f instances/sec, %lld steals, %lld scratch adoptions "
      "(%lld warm recycles)\n",
      fleet_wall_ms, instances_per_sec, static_cast<long long>(fleet.stolen()),
      static_cast<long long>(fleet.scratch_adoptions()),
      static_cast<long long>(fleet.scratch_recycles()));

  // Per-instance rows: the fingerprint trail that certifies determinism
  // across fleet runs (equal seeds => equal fingerprints, any thread count).
  for (const auto& out : outcomes) {
    all_ok = all_ok && out.ok;
    rows.begin_row();
    rows.field("kind", std::string("instance"));
    rows.field("scenario", out.item.scenario->name);
    rows.field("seed", static_cast<std::int64_t>(out.item.seed));
    rows.field("n", static_cast<std::int64_t>(out.item.n));
    rows.field("t", out.item.t);
    rows.field("rounds", static_cast<std::int64_t>(out.report.rounds));
    rows.field("messages", out.report.metrics.messages_total);
    rows.field("wall_ms", out.wall_ms);
    rows.field("fingerprint", static_cast<std::int64_t>(out.fingerprint));
    rows.field("ok", std::string(out.ok ? "yes" : "NO"));
  }

  // Serial spot check: K instances sampled at a deterministic stride across
  // the whole queue (items are grouped scenario-by-scenario, so a stride —
  // unlike a prefix — covers every scenario) re-run one-at-a-time must be
  // bit-identical to their fleet runs.
  if (opt.verify_serial > 0) {
    const auto k = std::min<std::size_t>(static_cast<std::size_t>(opt.verify_serial),
                                         outcomes.size());
    std::int64_t mismatches = 0;
    for (std::size_t j = 0; j < k; ++j) {
      const std::size_t i = j * outcomes.size() / k;
      const auto& out = outcomes[i];
      const auto serial =
          out.item.scenario->run_at(out.item.seed, out.item.n, out.item.t, {});
      if (lft::scenarios::fingerprint(serial.report) == out.fingerprint) continue;
      ++mismatches;
      // Localize: re-run the instance under trace recording with cold
      // buffers vs. a *warm* recycled scratch — the two configurations a
      // fleet slot can differ in — and report the first divergent
      // round/component. The scratch is warmed by a throwaway first run;
      // a freshly constructed scratch would just be another cold run.
      const auto cold =
          lft::forensics::record(*out.item.scenario, out.item.seed, 1, out.item.n, out.item.t);
      lft::sim::EngineScratch scratch;
      lft::core::RunOptions warm_options;
      warm_options.scratch = &scratch;
      (void)out.item.scenario->run_at(out.item.seed, out.item.n, out.item.t,
                                      warm_options);  // warm the buffers
      lft::forensics::TraceRecorder warm_recorder;
      warm_options.trace = &warm_recorder;
      (void)out.item.scenario->run_at(out.item.seed, out.item.n, out.item.t, warm_options);
      const auto divergence = lft::forensics::diff(cold.trace, warm_recorder.trace());
      std::printf("verify-serial MISMATCH %s seed %llu n %d: %s\n",
                  out.item.scenario->name.c_str(),
                  static_cast<unsigned long long>(out.item.seed), out.item.n,
                  divergence.diverged
                      ? divergence.detail.c_str()
                      : "divergence did not reproduce under tracing (fleet-run-only)");
    }
    std::printf("verify-serial: %zu instances re-run serially, %lld fingerprint mismatches\n",
                k, static_cast<long long>(mismatches));
    if (mismatches != 0) all_ok = false;
  }

  if (!opt.json_path.empty() && !rows.write_file(opt.json_path)) {
    std::fprintf(stderr, "failed to write %s\n", opt.json_path.c_str());
    return 1;
  }
  return all_ok ? 0 : 1;
}
