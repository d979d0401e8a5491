// Recorder-overhead gate for the forensics plane: the same engine-hotpath
// fanout workload (bench/engine_hotpath.cpp) with tracing off vs. a
// TraceRecorder installed. The TraceSink contract is <= 5% overhead or
// <= 5 ns per message on the hot path when enabled, whichever allows more
// (and zero when disabled — loss counters hide behind the drop branches);
// scripts/check_trace_overhead.py compares the paired BM_TraceOff/BM_TraceOn
// items_per_second rates and fails CI past both bounds (advisory under
// ASan, like the hotpath gate). The absolute budget is what keeps the gate
// stable as the untraced baseline speeds up: the recorder's digest work is
// a fixed per-message cost, not a fraction of delivery time. Both sides step
// serially (threads = 1), as the hotpath baseline does.
#include <benchmark/benchmark.h>

#include <cstddef>
#include <vector>

#include "forensics/trace.hpp"
#include "sim/engine.hpp"

namespace {

using namespace lft;
using namespace lft::sim;

constexpr NodeId kNodes = 1024;
constexpr Round kRounds = 4;

/// Every node sends `fan` messages per round to a fixed pseudo-random set of
/// receivers, cycling through 7 tags, then halts after kRounds (the
/// engine_hotpath workload).
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

void run_fanout(benchmark::State& state, std::size_t body_bytes, bool traced) {
  const auto messages = static_cast<std::int64_t>(state.range(0));
  const int fan = static_cast<int>(messages / kNodes);
  std::int64_t delivered = 0;
  std::uint64_t digest_guard = 0;
  for (auto _ : state) {
    forensics::TraceRecorder recorder;
    EngineConfig config;
    config.threads = 1;
    if (traced) config.trace = &recorder;
    Engine engine(kNodes, config);
    for (NodeId v = 0; v < kNodes; ++v) {
      engine.set_process(v, std::make_unique<FanoutProcess>(v, fan, body_bytes));
    }
    const Report report = engine.run();
    delivered = report.metrics.messages_total;
    for (const auto& d : recorder.trace().rounds) digest_guard ^= d.payload_hash;
    benchmark::DoNotOptimize(delivered);
    benchmark::DoNotOptimize(digest_guard);
  }
  state.SetItemsProcessed(state.iterations() * delivered);
}

void BM_TraceOff(benchmark::State& state) { run_fanout(state, 0, false); }
BENCHMARK(BM_TraceOff)->Arg(100'000)->Arg(1'000'000)->Unit(benchmark::kMillisecond);

void BM_TraceOn(benchmark::State& state) { run_fanout(state, 0, true); }
BENCHMARK(BM_TraceOn)->Arg(100'000)->Arg(1'000'000)->Unit(benchmark::kMillisecond);

void BM_TraceOffBody(benchmark::State& state) { run_fanout(state, 32, false); }
BENCHMARK(BM_TraceOffBody)->Arg(100'000)->Arg(1'000'000)->Unit(benchmark::kMillisecond);

void BM_TraceOnBody(benchmark::State& state) { run_fanout(state, 32, true); }
BENCHMARK(BM_TraceOnBody)->Arg(100'000)->Arg(1'000'000)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
