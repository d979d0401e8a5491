// Microbenchmarks for the engine's message plane: raw send/deliver
// throughput with and without payload bodies, at batch sizes m spanning
// 10^5..10^7 messages. This isolates the per-message constant factor the
// paper's O(n) communication bounds make the whole ballgame — protocol logic
// is a trivial fan-out so the measured time is arena append + crash filter +
// delivery sweep into (receiver, tag) normal form.
//
// Extra flag (stripped before Google Benchmark sees the command line):
//   --json=PATH   write one flat JSON row per benchmark run (bench, simd,
//                 ms, items/s) in the shared BENCH_*.json row schema that
//                 scripts/check_hotpath_regression.py and
//                 scripts/bench_report.py consume. `simd` is always
//                 "scalar", which continues the series in bench/history/.
#include <benchmark/benchmark.h>

#include <cstddef>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "bench_json.hpp"
#include "sim/engine.hpp"

namespace {

using namespace lft;
using namespace lft::sim;

constexpr NodeId kNodes = 1024;
constexpr Round kRounds = 4;

/// Every node sends `fan` messages per round to a fixed pseudo-random set of
/// receivers, cycling through 7 tags, then halts after kRounds.
class FanoutProcess final : public Process {
 public:
  FanoutProcess(NodeId self, int fan, std::size_t body_bytes)
      : self_(self), fan_(fan), body_(body_bytes, std::byte{0x5A}) {}

  void on_round(Context& ctx, const Inbox& inbox) override {
    benchmark::DoNotOptimize(inbox.size());
    if (ctx.round() >= kRounds) {
      ctx.halt();
      return;
    }
    for (int i = 0; i < fan_; ++i) {
      const auto to = static_cast<NodeId>(
          (static_cast<std::int64_t>(self_) * 31 + i * 17 + ctx.round()) % kNodes);
      const auto tag = static_cast<std::uint32_t>(i % 7);
      if (body_.empty()) {
        ctx.send(to, tag, static_cast<std::uint64_t>(i));
      } else {
        ctx.send(to, tag, static_cast<std::uint64_t>(i), 1 + body_.size() * 8, body_);
      }
    }
  }

 private:
  NodeId self_;
  int fan_;
  std::vector<std::byte> body_;
};

void run_fanout(benchmark::State& state, std::size_t body_bytes) {
  const auto messages = static_cast<std::int64_t>(state.range(0));
  const int fan = static_cast<int>(messages / kNodes);
  std::int64_t delivered = 0;
  for (auto _ : state) {
    Engine engine(kNodes, EngineConfig{});
    for (NodeId v = 0; v < kNodes; ++v) {
      engine.set_process(v, std::make_unique<FanoutProcess>(v, fan, body_bytes));
    }
    const Report report = engine.run();
    delivered = report.metrics.messages_total;
    benchmark::DoNotOptimize(delivered);
  }
  state.SetItemsProcessed(state.iterations() * delivered);
  state.counters["msgs_per_round"] = static_cast<double>(fan) * kNodes;
}

void BM_SendDeliver(benchmark::State& state) { run_fanout(state, 0); }
BENCHMARK(BM_SendDeliver)
    ->Arg(100'000)
    ->Arg(1'000'000)
    ->Arg(10'000'000)
    ->Unit(benchmark::kMillisecond);

void BM_SendDeliverBody(benchmark::State& state) { run_fanout(state, 32); }
BENCHMARK(BM_SendDeliverBody)
    ->Arg(100'000)
    ->Arg(1'000'000)
    ->Arg(10'000'000)
    ->Unit(benchmark::kMillisecond);

/// Console reporter that additionally collects one flat JSON row per
/// non-aggregate run, in the schema shared by every BENCH_*.json artifact.
class RowCaptureReporter final : public benchmark::ConsoleReporter {
 public:
  void ReportRuns(const std::vector<Run>& runs) override {
    for (const Run& run : runs) {
      if (run.run_type != Run::RT_Iteration || run.error_occurred) continue;
      rows.begin_row();
      rows.field("bench", run.benchmark_name());
      rows.field("simd", std::string("scalar"));
      rows.field("ms_per_iter", run.GetAdjustedRealTime());
      const auto it = run.counters.find("items_per_second");
      rows.field("items_per_second", it == run.counters.end() ? 0.0 : it->second.value);
    }
    ConsoleReporter::ReportRuns(runs);
  }

  lft::bench::JsonRows rows;
};

}  // namespace

int main(int argc, char** argv) {
  std::string json_path;
  std::vector<char*> args;
  args.reserve(static_cast<std::size_t>(argc));
  for (int i = 0; i < argc; ++i) {
    if (std::strncmp(argv[i], "--json=", 7) == 0) {
      json_path = argv[i] + 7;
    } else {
      args.push_back(argv[i]);
    }
  }
  int bench_argc = static_cast<int>(args.size());
  benchmark::Initialize(&bench_argc, args.data());
  if (benchmark::ReportUnrecognizedArguments(bench_argc, args.data())) return 1;
  RowCaptureReporter reporter;
  benchmark::RunSpecifiedBenchmarks(&reporter);
  benchmark::Shutdown();
  if (!json_path.empty() && !reporter.rows.write_file(json_path)) {
    std::fprintf(stderr, "failed to write %s\n", json_path.c_str());
    return 1;
  }
  return 0;
}
