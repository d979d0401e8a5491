// Protocol parameter policies. `paper_formulas` documents the constants the
// proofs use (degree 5^8 etc.; not instantiable at feasible n, see DESIGN.md
// substitution 1); `practical` produces calibrated constants whose required
// graph properties (compactness, expansion, survival) are verified directly
// by the property tests and benches.
#pragma once

#include <cstdint>

#include "common/types.hpp"

namespace lft::core {

struct ConsensusParams {
  NodeId n = 0;
  std::int64_t t = 0;

  NodeId little_count = 0;   // 5t clamped to [1, n]; AEA/SCV little group
  int probe_degree_little = 16;  // degree of overlay G among little nodes
  int probe_degree_all = 16;     // degree of overlay G on all nodes (Many);
                                 // scales with 1/(1-alpha) like the paper's d(alpha)
  int probe_delta_little = 4;  // delta for probing among little nodes
  int probe_delta_all = 4;     // delta for probing among all nodes (Many)
  int probe_gamma_little = 0;  // 2 + lg(little_count)
  int probe_gamma_all = 0;     // 2 + lg n
  Round flood_rounds_little = 0;  // 5t - 1 (AEA Part 1)
  Round flood_rounds_all = 0;     // n - 1 (Many Part 1)

  int spread_degree = 12;     // degree of overlay H (SCV Part 1)
  Round spread_rounds = 0;    // ceil(log_{4/3}((2n/5)/max(t, n/t))) clamped

  int inquiry_base = 10;      // G_i degree = inquiry_base * 2^i (Lemma 5)
  int inquiry_cap = 0;        // degree cap (n-1; 3t+1 in single-port mode)
  int scv_phases = 0;         // ceil(lg(t+1)) + 1
  int many_phases = 0;        // phases of Many-Crashes Part 3
  bool use_little_pull = false;  // SCV Part 2 branch for t^2 <= n

  bool guarantee_termination = true;  // certified direct-pull epilogue
  std::uint64_t overlay_tag = 0;      // namespace for overlay graphs

  /// Calibrated constants for instantiable overlays. Requires 0 <= t and
  /// 5t < n for protocols that use the little group.
  [[nodiscard]] static ConsensusParams practical(NodeId n, std::int64_t t);

  /// Variant used by the single-port adaptation (Section 8): inquiry degrees
  /// capped at 3t+1 and the all-little pull disabled.
  [[nodiscard]] static ConsensusParams single_port(NodeId n, std::int64_t t);
};

}  // namespace lft::core
