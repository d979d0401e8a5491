// Immutable simple undirected graph in compressed-sparse-row form. Overlay
// topologies are built once per protocol configuration and shared read-only
// by all simulated nodes, matching the paper's model where every node derives
// the overlay from the public parameters (n, t).
#pragma once

#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "common/types.hpp"

namespace lft::graph {

class Graph {
 public:
  Graph() = default;

  /// Builds a simple undirected graph on n vertices from an edge list.
  /// Self-loops and duplicate edges are dropped; each neighbor list is sorted.
  /// `scratch` is working memory (its contents are ignored): a caller that
  /// holds a buffer it no longer needs can donate it instead of letting the
  /// build allocate one entry per edge endpoint.
  static Graph from_edges(NodeId n, std::span<const std::pair<NodeId, NodeId>> edges,
                          std::vector<NodeId> scratch = {});

  [[nodiscard]] NodeId num_vertices() const noexcept { return n_; }
  [[nodiscard]] std::int64_t num_edges() const noexcept {
    return static_cast<std::int64_t>(adjacency_.size()) / 2;
  }

  [[nodiscard]] std::span<const NodeId> neighbors(NodeId v) const noexcept {
    return {adjacency_.data() + offsets_[static_cast<std::size_t>(v)],
            adjacency_.data() + offsets_[static_cast<std::size_t>(v) + 1]};
  }

  [[nodiscard]] int degree(NodeId v) const noexcept {
    return static_cast<int>(offsets_[static_cast<std::size_t>(v) + 1] -
                            offsets_[static_cast<std::size_t>(v)]);
  }

  /// O(log degree) membership test (neighbor lists are sorted).
  [[nodiscard]] bool has_edge(NodeId u, NodeId v) const noexcept;

  [[nodiscard]] int min_degree() const noexcept;
  /// O(1): computed once at build time (stage link budgets query it per node
  /// per round).
  [[nodiscard]] int max_degree() const noexcept { return max_degree_; }
  [[nodiscard]] bool is_regular() const noexcept { return min_degree() == max_degree(); }

 private:
  friend Graph complete_graph(NodeId n);

  NodeId n_ = 0;
  int max_degree_ = 0;
  std::vector<std::int64_t> offsets_;  // n_ + 1 entries
  std::vector<NodeId> adjacency_;
};

}  // namespace lft::graph
