// E-THM12 — Theorem 12: Linear-Consensus in the single-port model runs in
// O(t + log n) sp-rounds with O(n + t log n) bits, in both Section 8
// regimes (t >= sqrt(n): related-node star scheduled link by link;
// t < sqrt(n): extended SCV flooding replaces the star).
#include <benchmark/benchmark.h>

#include <cmath>

#include "bench_util.hpp"
#include "common/math.hpp"
#include "singleport/linear_consensus.hpp"

namespace {

using namespace lft;
using namespace lft::bench;

void print_table() {
  banner("E-THM12: Linear-Consensus (single-port)",
         "claim: O(t + log n) sp-rounds, O(n + t log n) bits, both t-vs-sqrt(n) regimes");
  Table table({"n", "t", "regime", "sp_rounds", "r/(t+lgn)", "bits", "ok"});
  table.print_header();
  for (auto [n, t] : std::vector<std::pair<NodeId, std::int64_t>>{
           {400, 10},    // t < sqrt(n)
           {400, 60},    // t >= sqrt(n)
           {1600, 30},   // t < sqrt(n)
           {1600, 250},  // t >= sqrt(n)
           {3200, 600}}) {
    const auto params = core::ConsensusParams::single_port(n, t);
    const auto inputs = random_binary_inputs(n, 83);
    auto adversary = sim::make_scheduled(sim::random_crash_schedule(n, t, 0, 40 * t, 0.0, 89));
    const auto outcome = singleport::run_linear_consensus(params, inputs, std::move(adversary));
    const bool star = t * t >= static_cast<std::int64_t>(n);
    const double shape =
        static_cast<double>(t) + ceil_log2(static_cast<std::uint64_t>(n));
    table.cell(static_cast<std::int64_t>(n));
    table.cell(t);
    table.cell(std::string(star ? "star" : "flood"));
    table.cell(outcome.report.rounds);
    table.cell(static_cast<double>(outcome.report.rounds) / shape);
    table.cell(outcome.report.metrics.bits_total);
    table.cell(std::string(outcome.all_good() ? "yes" : "NO"));
    table.end_row();
  }
  std::printf("\nexpected shape: sp_rounds/(t + lg n) bounded in both regimes.\n");
}

void BM_LinearConsensusSweep(benchmark::State& state) {
  const auto n = static_cast<NodeId>(state.range(0));
  const std::int64_t t = n / 8;
  const auto params = core::ConsensusParams::single_port(n, t);
  const auto inputs = random_binary_inputs(n, 83);
  for (auto _ : state) {
    auto outcome = singleport::run_linear_consensus(params, inputs, nullptr);
    benchmark::DoNotOptimize(outcome.report.rounds);
  }
}
BENCHMARK(BM_LinearConsensusSweep)->Arg(400)->Arg(1600)->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  print_table();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
