// E-T1-R4 — Table 1, single-port column ("Yes" for the crash rows):
// Linear-Consensus keeps the multi-port complexity in the single-port model,
// with rounds Theta(t + log n) (the Theorem 13 lower bound makes the log n
// term necessary).
#include <benchmark/benchmark.h>

#include "table_main.hpp"
#include "bench_util.hpp"
#include "common/math.hpp"
#include "singleport/linear_consensus.hpp"

namespace {

using namespace lft;
using namespace lft::bench;

void print_table(JsonRows* json) {
  banner("E-T1-R4: Table 1 single-port column",
         "claim: single-port consensus in O(t + log n) rounds with O(n + t log n) bits");
  Table table({"n", "t", "sp_rounds", "r/(t+lgn)", "bits", "bits/n", "ok"});
  table.print_header();
  for (auto [n, t] : std::vector<std::pair<NodeId, std::int64_t>>{
           {256, 8}, {256, 32}, {1024, 16}, {1024, 128}, {2048, 256}}) {
    const auto params = core::ConsensusParams::single_port(n, t);
    const auto inputs = random_binary_inputs(n, 41);
    auto adversary =
        t == 0 ? nullptr
               : sim::make_scheduled(sim::random_crash_schedule(n, t, 0, 40 * t, 0.0, 43));
    const WallTimer timer;
    const auto outcome = singleport::run_linear_consensus(params, inputs, std::move(adversary));
    record_table_row(json, {}, n, t, outcome.report.rounds,
                     outcome.report.metrics.messages_total,
                     outcome.report.metrics.bits_total, timer.ms(), outcome.all_good());
    const double shape =
        static_cast<double>(t) + ceil_log2(static_cast<std::uint64_t>(n));
    table.cell(static_cast<std::int64_t>(n));
    table.cell(t);
    table.cell(outcome.report.rounds);
    table.cell(static_cast<double>(outcome.report.rounds) / shape);
    table.cell(outcome.report.metrics.bits_total);
    table.cell(static_cast<double>(outcome.report.metrics.bits_total) /
               static_cast<double>(n));
    table.cell(std::string(outcome.all_good() ? "yes" : "NO"));
    table.end_row();
  }
  std::printf("\nexpected shape: sp_rounds/(t+lg n) flat; bits/n bounded.\n");
}

void BM_LinearConsensus(benchmark::State& state) {
  const auto n = static_cast<NodeId>(state.range(0));
  const std::int64_t t = n / 16;
  const auto params = core::ConsensusParams::single_port(n, t);
  const auto inputs = random_binary_inputs(n, 41);
  core::ConsensusOutcome outcome;
  for (auto _ : state) {
    outcome = singleport::run_linear_consensus(params, inputs, nullptr);
  }
  state.counters["sp_rounds"] = static_cast<double>(outcome.report.rounds);
  state.counters["bits"] = static_cast<double>(outcome.report.metrics.bits_total);
}
BENCHMARK(BM_LinearConsensus)->Arg(256)->Arg(1024)->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  return lft::bench::table_main(argc, argv, [](lft::bench::JsonRows* json) { print_table(json); });
}

