// Quickstart: binary consensus among 1000 crash-prone nodes.
//
// Builds the paper's Few-Crashes-Consensus (Figure 3: Almost-Everywhere-
// Agreement on an expander among the 5t "little" nodes, then
// Spread-Common-Value to everyone), runs it against a random crash
// adversary, and prints the outcome and the communication bill.
//
//   ./examples/quickstart [n] [t]
#include <cstdio>
#include <limits>

#include "common/cli.hpp"
#include "core/consensus.hpp"
#include "core/params.hpp"
#include "common/rng.hpp"
#include "sim/adversary.hpp"

int main(int argc, char** argv) {
  using namespace lft;

  constexpr std::int64_t kMaxNodes = std::numeric_limits<NodeId>::max();
  std::int64_t n_arg = 1000;
  const bool n_ok = argc <= 3 && cli::positional_i64(argc, argv, 1, 1, kMaxNodes, n_arg);
  std::int64_t t = n_arg / 10;
  if (!n_ok || !cli::positional_i64(argc, argv, 2, 0, (n_arg - 1) / 5, t)) {
    std::fprintf(stderr, "usage: %s [n] [t]   (n >= 1, 0 <= t < n/5)\n", argv[0]);
    return 2;
  }
  const auto n = static_cast<NodeId>(n_arg);

  // Every node gets a random binary input.
  Rng rng(2024);
  std::vector<int> inputs(static_cast<std::size_t>(n));
  for (auto& b : inputs) b = static_cast<int>(rng.uniform(2));

  // Protocol parameters: overlay degrees, probing thresholds, phase counts.
  const auto params = core::ConsensusParams::practical(n, t);

  // An adversary that crashes t nodes at random times (clean crashes).
  auto adversary = sim::make_scheduled(sim::random_crash_schedule(n, t, 0, 5 * t, 0.0, 42));

  const auto outcome = core::run_few_crashes_consensus(params, inputs, std::move(adversary));

  std::printf("consensus among n=%d nodes with up to t=%lld crashes\n", n,
              static_cast<long long>(t));
  std::printf("  decision     : %s\n",
              outcome.decision ? std::to_string(*outcome.decision).c_str() : "(none)");
  std::printf("  agreement    : %s\n", outcome.agreement ? "ok" : "VIOLATED");
  std::printf("  validity     : %s\n", outcome.validity ? "ok" : "VIOLATED");
  std::printf("  termination  : %s\n", outcome.termination ? "ok" : "VIOLATED");
  std::printf("  rounds       : %lld  (Theorem 7: O(t + log n))\n",
              static_cast<long long>(outcome.report.rounds));
  std::printf("  messages     : %lld\n",
              static_cast<long long>(outcome.report.metrics.messages_total));
  std::printf("  bits         : %lld  (Theorem 7: O(n + t log t))\n",
              static_cast<long long>(outcome.report.metrics.bits_total));
  std::printf("  crashed      : %lld nodes\n",
              static_cast<long long>(outcome.report.crashed_count()));
  return outcome.all_good() ? 0 : 1;
}
