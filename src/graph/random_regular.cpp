#include "graph/random_regular.hpp"

#include <algorithm>
#include <utility>
#include <vector>

#include "common/assert.hpp"
#include "common/flat_set64.hpp"
#include "common/rng.hpp"

namespace lft::graph {

namespace {

std::uint64_t edge_key(NodeId u, NodeId v) noexcept {
  if (u > v) std::swap(u, v);
  return (static_cast<std::uint64_t>(static_cast<std::uint32_t>(u)) << 32) |
         static_cast<std::uint32_t>(v);
}

/// Edge presence as one bit per cell (u, v), u < v, of the n x n adjacency
/// matrix: the FlatSet64 interface over edge keys, without the hashing and
/// the random probes into a table of 16 bytes per edge.
class EdgeBitmap {
 public:
  explicit EdgeBitmap(NodeId n)
      : n_(static_cast<std::uint64_t>(n)), words_((n_ * n_ + 63) / 64, 0) {}

  [[nodiscard]] bool contains(std::uint64_t key) const noexcept {
    const std::uint64_t i = cell(key);
    return ((words_[i >> 6] >> (i & 63)) & 1) != 0;
  }
  void insert(std::uint64_t key) noexcept {
    const std::uint64_t i = cell(key);
    words_[i >> 6] |= std::uint64_t{1} << (i & 63);
  }
  void erase(std::uint64_t key) noexcept {
    const std::uint64_t i = cell(key);
    words_[i >> 6] &= ~(std::uint64_t{1} << (i & 63));
  }

 private:
  [[nodiscard]] std::uint64_t cell(std::uint64_t key) const noexcept {
    return (key >> 32) * n_ + (key & 0xffffffffULL);
  }

  std::uint64_t n_;
  std::vector<std::uint64_t> words_;
};

/// Repairs self-loops and duplicate edges in `pairs` by random edge switches
/// with good pairs until the multigraph is simple. `present` starts empty.
template <class EdgeSet>
void make_simple(std::vector<std::pair<NodeId, NodeId>>& pairs, EdgeSet& present, Rng& rng) {
  const std::size_t m = pairs.size();
  std::vector<char> good(m, 0);

  // First pass: register conflict-free edges, queue the rest for repair.
  std::vector<std::size_t> bad;
  for (std::size_t i = 0; i < m; ++i) {
    const auto [u, v] = pairs[i];
    const bool conflict = (u == v) || present.contains(edge_key(u, v));
    if (conflict) {
      bad.push_back(i);
    } else {
      present.insert(edge_key(u, v));
      good[i] = 1;
    }
  }

  // Repair: switch each bad pair with a random good pair so both end valid.
  std::uint64_t guard = 0;
  const std::uint64_t guard_limit = 2 * m * 1000ULL + 100000ULL;  // 1000 tries per stub
  while (!bad.empty()) {
    LFT_ASSERT_MSG(++guard < guard_limit, "edge-switch repair did not converge");
    const std::size_t i = bad.back();
    const std::size_t j = static_cast<std::size_t>(rng.uniform(m));
    if (j == i || good[j] == 0) continue;
    auto [a, b] = pairs[i];
    auto [c, e] = pairs[j];
    // Proposed switch: (a,c) and (b,e).
    if (a == c || b == e) continue;
    const std::uint64_t k1 = edge_key(a, c);
    const std::uint64_t k2 = edge_key(b, e);
    if (k1 == k2 || present.contains(k1) || present.contains(k2)) continue;
    present.erase(edge_key(c, e));
    pairs[i] = {a, c};
    pairs[j] = {b, e};
    present.insert(k1);
    present.insert(k2);
    good[i] = 1;
    bad.pop_back();
  }
}

}  // namespace

Graph random_regular_graph(NodeId n, int d, std::uint64_t seed) {
  LFT_ASSERT(n > 0 && d > 0 && d < n);
  LFT_ASSERT_MSG((static_cast<std::int64_t>(n) * d) % 2 == 0, "n*d must be even");

  Rng rng(seed);

  // Configuration model: pair up n*d stubs, then repair self-loops and
  // duplicate edges with random edge switches until the multigraph is simple.
  const std::size_t stubs_count = static_cast<std::size_t>(n) * static_cast<std::size_t>(d);
  std::vector<NodeId> stubs(stubs_count);
  for (std::size_t i = 0; i < stubs_count; ++i) {
    stubs[i] = static_cast<NodeId>(i / static_cast<std::size_t>(d));
  }
  rng.shuffle(std::span<NodeId>(stubs));

  const std::size_t m = stubs_count / 2;
  std::vector<std::pair<NodeId, NodeId>> pairs(m);
  for (std::size_t i = 0; i < m; ++i) pairs[i] = {stubs[2 * i], stubs[2 * i + 1]};

  // The edge set is a bitmap when its n^2 / 8 bytes are at most the hash
  // set's 16 bytes per edge (n <= 64 d), the hash set otherwise. Both answer
  // alike, so the repair makes the same draws and the graph is the same.
  // The repair state is scoped so it is freed before the CSR build, and the
  // stubs buffer (2m entries, no longer needed) becomes that build's
  // scratch: the build's peak stays at the pairing's.
  if (static_cast<std::uint64_t>(n) <= 64ULL * static_cast<std::uint64_t>(d)) {
    EdgeBitmap present(n);
    make_simple(pairs, present, rng);
  } else {
    FlatSet64 present(m);
    make_simple(pairs, present, rng);
  }

  return Graph::from_edges(n, pairs, std::move(stubs));
}

}  // namespace lft::graph
