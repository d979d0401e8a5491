// Checkpoint service: a simulated batch-compute cluster that periodically
// agrees on its surviving membership — the motivating workload of the
// checkpointing problem (Section 6). Each epoch some workers crash; the
// cluster runs the paper's Checkpointing algorithm (gossip with dummy
// rumors, then n concurrent consensus instances with combined messages) and
// every survivor decides the *same* roster, so work can be re-sharded
// deterministically without a central coordinator.
//
//   ./examples/checkpoint_service [n] [epochs]
#include <cstdio>
#include <limits>

#include "common/cli.hpp"
#include "core/checkpointing.hpp"
#include "sim/adversary.hpp"

int main(int argc, char** argv) {
  using namespace lft;

  constexpr std::int64_t kMaxNodes = std::numeric_limits<NodeId>::max();
  std::int64_t n_arg = 300;
  std::int64_t epochs = 3;
  if (argc > 3 || !cli::positional_i64(argc, argv, 1, 1, kMaxNodes, n_arg) ||
      !cli::positional_i64(argc, argv, 2, 0, std::numeric_limits<int>::max(), epochs)) {
    std::fprintf(stderr, "usage: %s [n] [epochs]   (n >= 1, epochs >= 0)\n", argv[0]);
    return 2;
  }
  const auto n = static_cast<NodeId>(n_arg);
  const std::int64_t t = n / 10;

  std::printf("cluster of %d workers, checkpoint epoch tolerates t=%lld crashes\n\n", n,
              static_cast<long long>(t));

  std::int64_t shards = 4 * n;  // work items to re-shard after each epoch
  for (int epoch = 0; epoch < epochs; ++epoch) {
    const auto params = core::CheckpointParams::practical(n, t);
    auto adversary = sim::make_scheduled(
        sim::random_crash_schedule(n, t, 0, 3 * t + 10, 0.3, 1000 + epoch));
    const auto outcome = core::run_checkpointing(params, std::move(adversary));

    // Reconstruct the agreed roster from any surviving node's decision.
    std::int64_t members = 0;
    for (const auto& s : outcome.report.nodes) {
      if (!s.crashed) ++members;
    }
    std::printf("epoch %d:\n", epoch);
    std::printf("  crashed this epoch : %lld\n",
                static_cast<long long>(outcome.report.crashed_count()));
    std::printf("  agreed roster size : %lld workers (all decided sets equal: %s)\n",
                static_cast<long long>(members), outcome.condition3 ? "yes" : "NO");
    std::printf("  conditions (1)/(2) : %s / %s   termination: %s\n",
                outcome.condition1 ? "ok" : "VIOLATED",
                outcome.condition2 ? "ok" : "VIOLATED",
                outcome.termination ? "ok" : "VIOLATED");
    std::printf("  rounds / messages  : %lld / %lld  (Theorem 10: O(t + log n log t), O(n + t log n log t))\n",
                static_cast<long long>(outcome.report.rounds),
                static_cast<long long>(outcome.report.metrics.messages_total));
    if (members > 0) {
      std::printf("  re-sharding        : %lld shards -> %lld per member\n\n",
                  static_cast<long long>(shards),
                  static_cast<long long>(shards / members));
    }
    if (!outcome.all_good()) return 1;
  }
  std::printf("all epochs checkpointed consistently.\n");
  return 0;
}
