// Overlay handle for the inquiry phases (Part 2 of Figure 2 / Part 3 of
// Figure 4), whose degrees double per phase up to n-1. Low-degree phases use
// a materialized, spectrally certified expander; high-degree phases would
// need O(n * d) CSR storage (gigabytes at bench scale), so they switch to an
// implicit representation — a random circulant (neighbors v +- s_j mod n for
// pseudorandom distinct strides) or the complete graph — with O(degree)
// neighbor enumeration and O(degree) state.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "common/types.hpp"
#include "graph/graph.hpp"

namespace lft::graph {

class PhaseGraph {
 public:
  PhaseGraph() = default;
  /// Wraps a materialized graph (implicit conversion is intentional so
  /// existing shared_ptr-based call sites keep working).
  PhaseGraph(std::shared_ptr<const Graph> g);  // NOLINT(google-explicit-constructor)

  /// Implicit circulant on n vertices: degree is rounded down to even, and
  /// the degree/2 distinct strides are drawn deterministically from seed.
  /// Stride sets are cached per (n, degree, seed) and shared by every copy,
  /// so handing one PhaseGraph to each of n nodes costs O(1) per node.
  [[nodiscard]] static PhaseGraph circulant(NodeId n, int degree, std::uint64_t seed);
  /// Implicit complete graph on n vertices.
  [[nodiscard]] static PhaseGraph complete(NodeId n);

  [[nodiscard]] bool is_materialized() const noexcept { return graph_ != nullptr; }
  [[nodiscard]] const Graph& materialized() const noexcept { return *graph_; }

  [[nodiscard]] NodeId num_vertices() const noexcept;
  [[nodiscard]] int max_degree() const noexcept;

  /// Calls f(w) for each neighbor w of v; no allocation on the implicit
  /// paths.
  template <class F>
  void for_each_neighbor(NodeId v, F&& f) const {
    if (graph_ != nullptr) {
      for (const NodeId w : graph_->neighbors(v)) f(w);
      return;
    }
    if (complete_) {
      for (NodeId u = 0; u < n_; ++u) {
        if (u != v) f(u);
      }
      return;
    }
    for (const NodeId s : *strides_) {
      f((v + s) % n_);
      f((v + n_ - s) % n_);  // distinct from v+s: strides stay below n/2
    }
  }

  /// Appends v's neighbors to out.
  void append_neighbors(NodeId v, std::vector<NodeId>& out) const;

 private:
  std::shared_ptr<const Graph> graph_;
  NodeId n_ = 0;
  bool complete_ = false;
  // Distinct, in [1, (n-1)/2]. Owned by the stride cache, which never drops
  // an entry, so copies of a PhaseGraph share it without reference counts.
  const std::vector<NodeId>* strides_ = nullptr;
};

}  // namespace lft::graph
