// Majority vote + live-node counting: the Section 9 extensions realized
// with the paper's own machinery. A cluster votes on a reconfiguration
// proposal while up to t nodes crash mid-vote; every survivor derives the
// same (member count, yes count) pair and hence the same verdict, with the
// communication profile of checkpointing rather than all-to-all exchange.
//
//   ./examples/majority_vote [n] [yes_fraction_percent]
#include <cstdio>
#include <limits>

#include "common/cli.hpp"
#include "common/rng.hpp"
#include "core/extensions.hpp"
#include "sim/adversary.hpp"

int main(int argc, char** argv) {
  using namespace lft;

  constexpr std::int64_t kMaxNodes = std::numeric_limits<NodeId>::max();
  std::int64_t n_arg = 200;
  std::int64_t yes_pct = 55;
  if (argc > 3 || !cli::positional_i64(argc, argv, 1, 1, kMaxNodes, n_arg) ||
      !cli::positional_i64(argc, argv, 2, 0, 100, yes_pct)) {
    std::fprintf(stderr, "usage: %s [n] [yes_fraction_percent]   (n >= 1, 0..100)\n",
                 argv[0]);
    return 2;
  }
  const auto n = static_cast<NodeId>(n_arg);
  const std::int64_t t = n / 10;

  Rng rng(77);
  std::vector<int> votes(static_cast<std::size_t>(n));
  int proposed_yes = 0;
  for (auto& v : votes) {
    v = rng.chance(static_cast<std::uint64_t>(yes_pct), 100) ? 1 : 0;
    proposed_yes += v;
  }

  const auto params = core::CheckpointParams::practical(n, t);
  auto adversary =
      sim::make_scheduled(sim::random_crash_schedule(n, t, 0, 4 * t + 10, 0.4, 55));
  const auto outcome = core::run_majority_consensus(params, votes, std::move(adversary));

  std::printf("reconfiguration vote among n=%d nodes (t=%lld crash budget)\n", n,
              static_cast<long long>(t));
  std::printf("  proposed yes votes : %d of %d\n", proposed_yes, n);
  std::printf("  crashed mid-vote   : %lld\n",
              static_cast<long long>(outcome.report.crashed_count()));
  std::printf("  agreed member count: %lld   (counting extension)\n",
              static_cast<long long>(outcome.members));
  std::printf("  agreed yes count   : %lld\n", static_cast<long long>(outcome.ones));
  std::printf("  verdict            : %s   (majority-consensus extension)\n",
              outcome.majority == 1 ? "ACCEPTED" : "REJECTED");
  std::printf("  all survivors agree: %s\n", outcome.agreement ? "yes" : "NO");
  std::printf("  rounds / messages  : %lld / %lld\n",
              static_cast<long long>(outcome.report.rounds),
              static_cast<long long>(outcome.report.metrics.messages_total));
  return outcome.all_good() ? 0 : 1;
}
