#include "core/params.hpp"

#include <algorithm>
#include <cmath>

#include "common/assert.hpp"
#include "common/math.hpp"

namespace lft::core {

namespace {

// ceil(log_{4/3}(x)) for x >= 1; conservative base for the SCV Part 1
// shrinkage recurrence (the paper proves base 3/2 at its degree-64 H).
Round ceil_log_43(double x) {
  if (x <= 1.0) return 0;
  return static_cast<Round>(std::ceil(std::log(x) / std::log(4.0 / 3.0)));
}

}  // namespace

ConsensusParams ConsensusParams::practical(NodeId n, std::int64_t t) {
  LFT_ASSERT(n >= 1 && t >= 0 && t < n);
  ConsensusParams p;
  p.n = n;
  p.t = t;
  p.little_count =
      static_cast<NodeId>(std::clamp<std::int64_t>(5 * t, 1, static_cast<std::int64_t>(n)));

  p.probe_degree_little = 16;
  // Complete-overlay regime: everyone hears everyone alive, so the exact
  // threshold L-1-t is both achievable and tight.
  if (p.little_count - 1 <= p.probe_degree_little) {
    p.probe_delta_little =
        static_cast<int>(std::max<std::int64_t>(0, p.little_count - 1 - t));
  } else {
    p.probe_delta_little = p.probe_degree_little / 4;
  }
  // The all-nodes overlay must keep a survival core when only n-t nodes
  // remain; like the paper's d(alpha) = (4/(1-alpha))^8, the degree scales
  // with n/(n-t) so the expected alive-degree stays >= 12.
  {
    const std::int64_t survivors = std::max<std::int64_t>(1, static_cast<std::int64_t>(n) - t);
    const std::int64_t wanted =
        std::max<std::int64_t>(16, (12 * static_cast<std::int64_t>(n) + survivors - 1) / survivors);
    p.probe_degree_all = static_cast<int>(std::min<std::int64_t>(wanted, n - 1));
  }
  if (n - 1 <= p.probe_degree_all) {
    p.probe_delta_all = static_cast<int>(std::max<std::int64_t>(0, n - 1 - t));
  } else {
    const double surviving_degree = static_cast<double>(p.probe_degree_all) *
                                    static_cast<double>(n - t) / static_cast<double>(n);
    p.probe_delta_all = std::max(1, static_cast<int>(surviving_degree / 3.0));
  }
  p.probe_gamma_little = 2 + lg_rounds(static_cast<std::uint64_t>(p.little_count));
  p.probe_gamma_all = 2 + lg_rounds(static_cast<std::uint64_t>(n));
  p.flood_rounds_little = std::max<Round>(1, static_cast<Round>(p.little_count) - 1);
  p.flood_rounds_all = std::max<Round>(1, static_cast<Round>(n) - 1);

  p.spread_degree = 12;
  // Paper: ceil(log((2n/5) / max(t, n/t))); the max is n for t = 0.
  const double denom =
      t == 0 ? static_cast<double>(n)
             : std::max(static_cast<double>(t), static_cast<double>(n) / static_cast<double>(t));
  p.spread_rounds = std::max<Round>(1, ceil_log_43(0.4 * static_cast<double>(n) / denom) + 2);

  p.inquiry_base = 10;
  p.inquiry_cap = static_cast<int>(n - 1);
  p.scv_phases = std::max(1, ceil_log2(static_cast<std::uint64_t>(t) + 1) + 1);
  // Many-Crashes Part 3: run until the inquiry degree reaches n-1, which
  // upper-bounds the paper's 1 + ceil(lg((1+3a)n/4)) phase count.
  p.many_phases =
      std::max(1, ceil_log2(static_cast<std::uint64_t>(std::max<NodeId>(2, n)) /
                            static_cast<std::uint64_t>(p.inquiry_base) +
                            1) +
                      1);
  p.use_little_pull = t * t <= static_cast<std::int64_t>(n);
  p.guarantee_termination = true;
  p.overlay_tag = 0;
  return p;
}

ConsensusParams ConsensusParams::single_port(NodeId n, std::int64_t t) {
  ConsensusParams p = practical(n, t);
  p.inquiry_cap = static_cast<int>(std::min<std::int64_t>(3 * t + 1, n - 1));
  p.use_little_pull = false;  // unbounded in-degree; Section 8 avoids it
  p.guarantee_termination = false;
  // With only the 3t little deciders seeding Part 1 of SCV (the t < sqrt(n)
  // regime skips the related-node star), the shrinkage starts from n-3t
  // undecided nodes, so flood long enough for that.
  p.spread_rounds =
      std::max<Round>(p.spread_rounds, ceil_log_43(static_cast<double>(n)) + 2);
  return p;
}

}  // namespace lft::core
