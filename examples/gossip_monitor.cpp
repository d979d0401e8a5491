// Gossip monitor: cluster-wide telemetry collection. Every node holds a
// status word (encoded load/health); the paper's Gossip algorithm (Figure 5)
// spreads all pairs to all survivors in O(log n log t) rounds with
// O(n + t log n log t) messages — far below the n^2 of naive all-to-all —
// and every survivor ends with a full, consistent view.
//
//   ./examples/gossip_monitor [n]
#include <cstdio>
#include <limits>

#include "common/cli.hpp"
#include "core/gossip.hpp"
#include "common/rng.hpp"
#include "sim/adversary.hpp"

int main(int argc, char** argv) {
  using namespace lft;

  constexpr std::int64_t kMaxNodes = std::numeric_limits<NodeId>::max();
  std::int64_t n_arg = 400;
  if (argc > 2 || !cli::positional_i64(argc, argv, 1, 1, kMaxNodes, n_arg)) {
    std::fprintf(stderr, "usage: %s [n]   (n >= 1)\n", argv[0]);
    return 2;
  }
  const auto n = static_cast<NodeId>(n_arg);
  const std::int64_t t = n / 10;

  // Status word per node: (load percent << 8) | health code.
  Rng rng(99);
  std::vector<std::uint64_t> status(static_cast<std::size_t>(n));
  for (NodeId v = 0; v < n; ++v) {
    status[static_cast<std::size_t>(v)] = (rng.uniform(100) << 8) | rng.uniform(4);
  }

  const auto params = core::GossipParams::practical(n, t);
  auto adversary =
      sim::make_scheduled(sim::random_crash_schedule(n, t, 0, 4 * t + 10, 0.5, 321));
  const auto outcome = core::run_gossip(params, status, std::move(adversary));

  std::printf("telemetry gossip among n=%d nodes (t=%lld crash budget)\n", n,
              static_cast<long long>(t));
  std::printf("  crashed          : %lld\n",
              static_cast<long long>(outcome.report.crashed_count()));
  std::printf("  every survivor has every live node's status : %s\n",
              outcome.condition2 ? "yes" : "NO");
  std::printf("  no ghost entries from silent crashes        : %s\n",
              outcome.condition1 ? "yes" : "NO");
  std::printf("  statuses uncorrupted                        : %s\n",
              outcome.rumors_intact ? "yes" : "NO");
  std::printf("  rounds   : %lld   (Theorem 9: O(log n log t))\n",
              static_cast<long long>(outcome.report.rounds));
  std::printf("  messages : %lld   (naive all-to-all: %lld)\n",
              static_cast<long long>(outcome.report.metrics.messages_total),
              static_cast<long long>(n) * (n - 1));

  // Aggregate the collected view like a monitoring dashboard would.
  std::int64_t overloaded = 0;
  std::int64_t unhealthy = 0;
  for (NodeId v = 0; v < n; ++v) {
    if (outcome.report.nodes[static_cast<std::size_t>(v)].crashed) continue;
    const std::uint64_t s = status[static_cast<std::size_t>(v)];
    overloaded += (s >> 8) >= 90 ? 1 : 0;
    unhealthy += (s & 0xff) == 3 ? 1 : 0;
  }
  std::printf("  dashboard: %lld overloaded, %lld unhealthy among survivors\n",
              static_cast<long long>(overloaded), static_cast<long long>(unhealthy));
  return outcome.all_good() ? 0 : 1;
}
