#include "graph/families.hpp"

#include <numeric>
#include <vector>

#include "common/assert.hpp"

namespace lft::graph {

Graph complete_graph(NodeId n) {
  LFT_ASSERT(n >= 0);
  // Row v is 0..n-1 without v; written directly, no edge list.
  Graph g;
  g.n_ = n;
  const auto rows = static_cast<std::size_t>(n);
  const std::size_t row_length = rows == 0 ? 0 : rows - 1;
  g.max_degree_ = static_cast<int>(row_length);
  g.offsets_.resize(rows + 1);
  g.adjacency_.resize(rows * row_length);
  for (std::size_t v = 0; v <= rows; ++v) {
    g.offsets_[v] = static_cast<std::int64_t>(v * row_length);
  }
  for (NodeId v = 0; v < n; ++v) {
    auto* row = g.adjacency_.data() + static_cast<std::size_t>(v) * row_length;
    std::iota(row, row + v, NodeId{0});
    std::iota(row + v, row + row_length, v + 1);
  }
  return g;
}

Graph ring_graph(NodeId n) {
  LFT_ASSERT(n >= 3);
  std::vector<std::pair<NodeId, NodeId>> edges;
  edges.reserve(static_cast<std::size_t>(n));
  for (NodeId u = 0; u < n; ++u) edges.emplace_back(u, (u + 1) % n);
  return Graph::from_edges(n, edges);
}

Graph star_graph(NodeId n) {
  LFT_ASSERT(n >= 2);
  std::vector<std::pair<NodeId, NodeId>> edges;
  edges.reserve(static_cast<std::size_t>(n) - 1);
  for (NodeId v = 1; v < n; ++v) edges.emplace_back(0, v);
  return Graph::from_edges(n, edges);
}

Graph hypercube_graph(int dim) {
  LFT_ASSERT(dim >= 1 && dim < 30);
  const NodeId n = NodeId{1} << dim;
  std::vector<std::pair<NodeId, NodeId>> edges;
  edges.reserve(static_cast<std::size_t>(n) * static_cast<std::size_t>(dim) / 2);
  for (NodeId u = 0; u < n; ++u) {
    for (int b = 0; b < dim; ++b) {
      const NodeId v = u ^ (NodeId{1} << b);
      if (u < v) edges.emplace_back(u, v);
    }
  }
  return Graph::from_edges(n, edges);
}

Graph torus_graph(NodeId rows, NodeId cols) {
  LFT_ASSERT(rows >= 3 && cols >= 3);
  const NodeId n = rows * cols;
  std::vector<std::pair<NodeId, NodeId>> edges;
  edges.reserve(static_cast<std::size_t>(n) * 2);
  auto id = [cols](NodeId r, NodeId c) { return r * cols + c; };
  for (NodeId r = 0; r < rows; ++r) {
    for (NodeId c = 0; c < cols; ++c) {
      edges.emplace_back(id(r, c), id((r + 1) % rows, c));
      edges.emplace_back(id(r, c), id(r, (c + 1) % cols));
    }
  }
  return Graph::from_edges(n, edges);
}

}  // namespace lft::graph
