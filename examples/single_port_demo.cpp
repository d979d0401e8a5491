// Single-port demo: consensus on hardware that can drive only one link per
// cycle (the Section 8 model — think one-NIC nodes or TDMA radio slots).
// Linear-Consensus schedules every overlay exchange link by link and still
// finishes in Theta(t + log n) slot-rounds; this demo runs the multi-port
// and single-port executions side by side to show the constant-factor slot
// expansion and the matching lower bound.
//
//   ./examples/single_port_demo [n] [t]
#include <algorithm>
#include <cstdio>
#include <limits>

#include "common/cli.hpp"
#include "common/math.hpp"
#include "common/rng.hpp"
#include "core/consensus.hpp"
#include "singleport/linear_consensus.hpp"
#include "singleport/lower_bound.hpp"

int main(int argc, char** argv) {
  using namespace lft;

  constexpr std::int64_t kMaxNodes = std::numeric_limits<NodeId>::max();
  std::int64_t n_arg = 400;
  const bool n_ok = argc <= 3 && cli::positional_i64(argc, argv, 1, 1, kMaxNodes, n_arg);
  std::int64_t t = n_arg / 10;
  if (!n_ok || !cli::positional_i64(argc, argv, 2, 0, (n_arg - 1) / 5, t)) {
    std::fprintf(stderr, "usage: %s [n] [t]   (n >= 1, 0 <= t < n/5)\n", argv[0]);
    return 2;
  }
  const auto n = static_cast<NodeId>(n_arg);

  Rng rng(11);
  std::vector<int> inputs(static_cast<std::size_t>(n));
  for (auto& b : inputs) b = static_cast<int>(rng.uniform(2));

  // Multi-port reference execution.
  const auto mp_params = core::ConsensusParams::practical(n, t);
  const auto mp = core::run_few_crashes_consensus(
      mp_params, inputs,
      sim::make_scheduled(sim::random_crash_schedule(n, t, 0, 5 * t, 0.0, 13)));

  // Single-port execution of the same protocol.
  const auto sp_params = core::ConsensusParams::single_port(n, t);
  const auto sp = singleport::run_linear_consensus(
      sp_params, inputs,
      sim::make_scheduled(sim::random_crash_schedule(n, t, 0, 40 * t, 0.0, 13)));

  std::printf("consensus, n=%d, t=%lld\n", n, static_cast<long long>(t));
  std::printf("  multi-port : rounds=%-6lld bits=%-8lld decision=%llu ok=%s\n",
              static_cast<long long>(mp.report.rounds),
              static_cast<long long>(mp.report.metrics.bits_total),
              static_cast<unsigned long long>(mp.decision.value_or(99)),
              mp.all_good() ? "yes" : "NO");
  std::printf("  single-port: rounds=%-6lld bits=%-8lld decision=%llu ok=%s\n",
              static_cast<long long>(sp.report.rounds),
              static_cast<long long>(sp.report.metrics.bits_total),
              static_cast<unsigned long long>(sp.decision.value_or(99)),
              sp.all_good() ? "yes" : "NO");
  // At least 1: t + lg n is 0 for a one-node system.
  const double shape =
      std::max(1.0, static_cast<double>(t) + ceil_log2(static_cast<std::uint64_t>(n)));
  std::printf("  sp rounds / (t + lg n) = %.2f   (Theorem 12: O(t + log n))\n",
              static_cast<double>(sp.report.rounds) / shape);

  // The matching lower bound in action: an adversary that starves a victim.
  const auto isolation = singleport::run_port_isolation(64, 12, 63);
  std::printf(
      "  Theorem 13 demo: with 12 crashes a victim hears nothing for %lld sp-rounds "
      "(no-crash first receipt: %lld)\n",
      static_cast<long long>(isolation.isolation_rounds),
      static_cast<long long>(isolation.baseline_receipt));
  return (mp.all_good() && sp.all_good()) ? 0 : 1;
}
