// Byzantine ledger: n replicas commit a sequence of ledger slots while up to
// t of them misbehave (silent, equivocating, flooding), using AB-Consensus
// (Section 7) with the authenticated-signature substrate. Per slot, each
// little replica proposes whether its mempool saw the batch; the committed
// bit is the agreed maximum — a faithful use of the paper's decision rule.
//
//   ./examples/byzantine_ledger [n] [slots]
#include <cstdio>
#include <limits>
#include <string>

#include "byzantine/ab_consensus.hpp"
#include "common/cli.hpp"
#include "common/rng.hpp"

int main(int argc, char** argv) {
  using namespace lft;

  constexpr std::int64_t kMaxNodes = std::numeric_limits<NodeId>::max();
  std::int64_t n_arg = 120;
  std::int64_t slots_arg = 4;
  if (argc > 3 || !cli::positional_i64(argc, argv, 1, 1, kMaxNodes, n_arg) ||
      !cli::positional_i64(argc, argv, 2, 0, std::numeric_limits<int>::max(), slots_arg)) {
    std::fprintf(stderr, "usage: %s [n] [slots]   (n >= 1, slots >= 0)\n", argv[0]);
    return 2;
  }
  const auto n = static_cast<NodeId>(n_arg);
  const auto slots = static_cast<int>(slots_arg);
  const std::int64_t t = n / 12;

  const auto params = byzantine::AbParams::practical(n, t);

  // A fixed Byzantine coalition with mixed behaviors.
  std::vector<std::pair<NodeId, std::string>> coalition;
  const char* kinds[] = {"silent", "equivocate", "flood"};
  for (std::int64_t i = 0; i < t; ++i) {
    coalition.emplace_back(static_cast<NodeId>((3 * i + 1) % params.little_count),
                           kinds[i % 3]);
  }
  std::sort(coalition.begin(), coalition.end());
  coalition.erase(std::unique(coalition.begin(), coalition.end(),
                              [](const auto& a, const auto& b) { return a.first == b.first; }),
                  coalition.end());

  std::printf("ledger with %d replicas, %zu Byzantine (t=%lld), %d slots\n\n", n,
              coalition.size(), static_cast<long long>(t), slots);

  Rng rng(7);
  int committed = 0;
  for (int slot = 0; slot < slots; ++slot) {
    // Each replica proposes 1 iff its mempool contains the slot's batch
    // (simulated: ~70% propagation).
    std::vector<std::uint64_t> proposals(static_cast<std::size_t>(n));
    for (auto& p : proposals) p = rng.chance(7, 10) ? 1 : 0;

    const auto outcome = byzantine::run_ab_consensus(params, proposals, coalition);
    if (!outcome.termination || !outcome.agreement) {
      std::printf("slot %d: consensus FAILED\n", slot);
      return 1;
    }
    committed += static_cast<int>(*outcome.decision);
    std::printf(
        "slot %d: commit=%llu  rounds=%lld  honest msgs=%lld (O(t^2+n)=%lld)  total msgs=%lld\n",
        slot, static_cast<unsigned long long>(*outcome.decision),
        static_cast<long long>(outcome.report.rounds),
        static_cast<long long>(outcome.report.metrics.messages_honest),
        static_cast<long long>(t * t + n),
        static_cast<long long>(outcome.report.metrics.messages_total));
  }
  std::printf("\n%d/%d slots committed; all replicas agreed on every slot despite the "
              "Byzantine coalition.\n",
              committed, slots);
  return 0;
}
