// Fleet-throughput bench: aggregate instances/sec of the instance-
// multiplexed FleetRunner vs. a serial one-at-a-time loop over the same
// mixed scenario batch. The table reports the serial baseline and the fleet
// at 1/2/4/8 workers with per-row speedups; on a machine with >= 8 cores
// the 8-worker row is expected to clear 2x (the single-worker row also
// isolates the scratch-recycling gain from multiplexing proper). --json=PATH
// captures the rows in the BENCH_*.json artifact schema.
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "common/cpus.hpp"
#include "scenarios/scenarios.hpp"
#include "sim/fleet.hpp"
#include "table_main.hpp"

namespace lft::bench {
namespace {

using scenarios::SweepItem;

/// The benchmark batch: a scenario mix across fault classes at fleet-scale
/// sizes (small enough that hundreds of instances stay in benchmark budget).
std::vector<SweepItem> fleet_batch(std::int64_t seeds_per_cell) {
  static const std::vector<NodeId> kSizes = {64, 96};
  static const char* kScenarios[] = {"crash_staggered_drip", "omission_send_quorum",
                                     "partition_split_heal", "byz_silent_little"};
  std::vector<std::uint64_t> seeds(static_cast<std::size_t>(seeds_per_cell));
  for (std::size_t i = 0; i < seeds.size(); ++i) seeds[i] = 1 + static_cast<std::uint64_t>(i);
  std::vector<SweepItem> items;
  for (const char* name : kScenarios) {
    auto expanded = scenarios::sweep(name, seeds, kSizes);
    items.insert(items.end(), expanded.begin(), expanded.end());
  }
  return items;
}

/// One-at-a-time reference execution (what a user's plain loop would do).
double run_serial_ms(const std::vector<SweepItem>& items) {
  const WallTimer timer;
  for (const auto& item : items) {
    const auto result = item.scenario->run_at(item.seed, item.n, item.t, {});
    benchmark::DoNotOptimize(result.report.rounds);
  }
  return timer.ms();
}

double run_fleet_ms(const std::vector<SweepItem>& items, int threads) {
  sim::FleetRunner fleet(sim::FleetConfig{threads, /*reuse_scratch=*/true});
  const WallTimer timer;
  const auto outcomes = scenarios::run_sweep(fleet, items);
  benchmark::DoNotOptimize(outcomes.size());
  return timer.ms();
}

void print_fleet_table(JsonRows* json) {
  banner("fleet throughput",
         "aggregate instances/sec over a mixed scenario batch: serial loop vs. "
         "instance-multiplexed FleetRunner (>= 2x expected at 8 workers on >= 8 cores)");
  std::printf("usable CPUs: %d\n\n", usable_cpus());

  const auto items = fleet_batch(/*seeds_per_cell=*/16);  // 4 scenarios x 16 seeds x 2 sizes
  const auto count = static_cast<std::int64_t>(items.size());

  Table table({"mode", "workers", "instances", "wall_ms", "inst_per_sec", "speedup"});
  table.print_header();

  const double serial_ms = run_serial_ms(items);
  const double serial_rate = 1000.0 * static_cast<double>(count) / serial_ms;
  table.cell("serial-loop");
  table.cell(static_cast<std::int64_t>(1));
  table.cell(count);
  table.cell(serial_ms);
  table.cell(serial_rate);
  table.cell(1.0);
  table.end_row();
  if (json != nullptr) {
    json->begin_row();
    json->field("mode", std::string("serial"));
    json->field("workers", static_cast<std::int64_t>(1));
    json->field("instances", count);
    json->field("wall_ms", serial_ms);
    json->field("instances_per_sec", serial_rate);
    json->field("speedup", 1.0);
  }

  for (const int workers : {1, 2, 4, 8}) {
    const double fleet_ms = run_fleet_ms(items, workers);
    const double rate = 1000.0 * static_cast<double>(count) / fleet_ms;
    const double speedup = serial_ms / fleet_ms;
    table.cell("fleet");
    table.cell(static_cast<std::int64_t>(workers));
    table.cell(count);
    table.cell(fleet_ms);
    table.cell(rate);
    table.cell(speedup);
    table.end_row();
    if (json != nullptr) {
      json->begin_row();
      json->field("mode", std::string("fleet"));
      json->field("workers", static_cast<std::int64_t>(workers));
      json->field("instances", count);
      json->field("wall_ms", fleet_ms);
      json->field("instances_per_sec", rate);
      json->field("speedup", speedup);
    }
  }
}

void bm_serial_loop(benchmark::State& state) {
  const auto items = fleet_batch(/*seeds_per_cell=*/4);
  for (auto _ : state) benchmark::DoNotOptimize(run_serial_ms(items));
  state.counters["instances"] = static_cast<double>(items.size());
}

void bm_fleet(benchmark::State& state) {
  const auto items = fleet_batch(/*seeds_per_cell=*/4);
  const int workers = static_cast<int>(state.range(0));
  for (auto _ : state) benchmark::DoNotOptimize(run_fleet_ms(items, workers));
  state.counters["instances"] = static_cast<double>(items.size());
}

BENCHMARK(bm_serial_loop)->Unit(benchmark::kMillisecond);
BENCHMARK(bm_fleet)->Arg(1)->Arg(2)->Arg(4)->Arg(8)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace lft::bench

int main(int argc, char** argv) {
  return lft::bench::table_main(argc, argv, lft::bench::print_fleet_table);
}
