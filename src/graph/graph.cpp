#include "graph/graph.hpp"

#include <algorithm>

#include "common/assert.hpp"

namespace lft::graph {

Graph Graph::from_edges(NodeId n, std::span<const std::pair<NodeId, NodeId>> edges,
                        std::vector<NodeId> scratch) {
  LFT_ASSERT(n >= 0);
  Graph g;
  g.n_ = n;
  const auto rows = static_cast<std::size_t>(n);

  // Two counting-sort passes, no comparison sort: scatter every edge into
  // its endpoints' rows (neighbors in edge order), then transpose — visit
  // rows w in ascending order and append w to the row of each neighbor x.
  // Row x then holds its neighbors ascending, duplicate edges adjacent.
  g.offsets_.assign(rows + 1, 0);
  for (auto [u, v] : edges) {
    LFT_ASSERT(u >= 0 && u < n && v >= 0 && v < n);
    if (u == v) continue;
    ++g.offsets_[static_cast<std::size_t>(u) + 1];
    ++g.offsets_[static_cast<std::size_t>(v) + 1];
  }
  for (std::size_t i = 1; i < g.offsets_.size(); ++i) g.offsets_[i] += g.offsets_[i - 1];
  const auto entries = static_cast<std::size_t>(g.offsets_[rows]);

  scratch.resize(entries);
  std::vector<std::int64_t> cursor(g.offsets_.begin(), g.offsets_.end() - 1);
  for (auto [u, v] : edges) {
    if (u == v) continue;
    scratch[static_cast<std::size_t>(cursor[static_cast<std::size_t>(u)]++)] = v;
    scratch[static_cast<std::size_t>(cursor[static_cast<std::size_t>(v)]++)] = u;
  }

  // Adjacency is symmetric, so each transposed row has its scattered row's
  // length and starts at the same offset.
  g.adjacency_.resize(entries);
  std::copy(g.offsets_.begin(), g.offsets_.end() - 1, cursor.begin());
  for (NodeId w = 0; w < n; ++w) {
    const auto end = static_cast<std::size_t>(g.offsets_[static_cast<std::size_t>(w) + 1]);
    for (auto i = static_cast<std::size_t>(g.offsets_[static_cast<std::size_t>(w)]); i < end;
         ++i) {
      g.adjacency_[static_cast<std::size_t>(cursor[static_cast<std::size_t>(scratch[i])]++)] = w;
    }
  }

  // Drop duplicate edges in one pass, compacting in place (the write
  // position never passes the read position).
  std::int64_t write = 0;
  for (std::size_t v = 0; v < rows; ++v) {
    const std::int64_t begin = g.offsets_[v];
    const std::int64_t end = g.offsets_[v + 1];
    g.offsets_[v] = write;
    NodeId previous = -1;
    for (std::int64_t i = begin; i < end; ++i) {
      const NodeId w = g.adjacency_[static_cast<std::size_t>(i)];
      if (w == previous) continue;
      g.adjacency_[static_cast<std::size_t>(write++)] = w;
      previous = w;
    }
    g.max_degree_ = std::max(g.max_degree_, static_cast<int>(write - g.offsets_[v]));
  }
  g.offsets_[rows] = write;
  g.adjacency_.resize(static_cast<std::size_t>(write));
  return g;
}

bool Graph::has_edge(NodeId u, NodeId v) const noexcept {
  const auto ns = neighbors(u);
  return std::binary_search(ns.begin(), ns.end(), v);
}

int Graph::min_degree() const noexcept {
  if (n_ == 0) return 0;
  int m = degree(0);
  for (NodeId v = 1; v < n_; ++v) m = std::min(m, degree(v));
  return m;
}

}  // namespace lft::graph
