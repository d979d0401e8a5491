#include "graph/phase_graph.hpp"

#include <algorithm>
#include <map>
#include <mutex>
#include <tuple>

#include "common/assert.hpp"
#include "common/flat_set64.hpp"
#include "common/rng.hpp"

namespace lft::graph {

namespace {

using StrideKey = std::tuple<NodeId, int, std::uint64_t>;

std::mutex& stride_cache_mutex() {
  static std::mutex m;
  return m;
}

// Entries are never erased, so pointers to them stay valid.
std::map<StrideKey, std::vector<NodeId>>& stride_cache() {
  static std::map<StrideKey, std::vector<NodeId>> c;
  return c;
}

const std::vector<NodeId>* cached_strides(NodeId n, int degree, std::uint64_t seed) {
  const StrideKey key{n, degree, seed};
  {
    std::lock_guard<std::mutex> lock(stride_cache_mutex());
    auto it = stride_cache().find(key);
    if (it != stride_cache().end()) return &it->second;
  }
  const auto stride_count = static_cast<std::size_t>(degree / 2);
  const auto stride_range = static_cast<std::uint64_t>((n - 1) / 2);
  LFT_ASSERT(stride_count <= stride_range);
  Rng rng(seed);
  FlatSet64 seen(stride_count);
  std::vector<NodeId> strides;
  strides.reserve(stride_count);
  while (strides.size() < stride_count) {
    const auto s = static_cast<NodeId>(1 + rng.uniform(stride_range));
    if (seen.insert(static_cast<std::uint64_t>(s))) strides.push_back(s);
  }
  std::sort(strides.begin(), strides.end());
  std::lock_guard<std::mutex> lock(stride_cache_mutex());
  return &stride_cache().emplace(key, std::move(strides)).first->second;
}

}  // namespace

PhaseGraph::PhaseGraph(std::shared_ptr<const Graph> g) : graph_(std::move(g)) {
  LFT_ASSERT(graph_ != nullptr);
  n_ = graph_->num_vertices();
}

PhaseGraph PhaseGraph::circulant(NodeId n, int degree, std::uint64_t seed) {
  LFT_ASSERT(n >= 3);
  LFT_ASSERT(degree >= 2 && degree < n - 1);
  PhaseGraph g;
  g.n_ = n;
  g.strides_ = cached_strides(n, degree, seed);
  return g;
}

PhaseGraph PhaseGraph::complete(NodeId n) {
  LFT_ASSERT(n >= 1);
  PhaseGraph g;
  g.n_ = n;
  g.complete_ = true;
  return g;
}

NodeId PhaseGraph::num_vertices() const noexcept { return n_; }

int PhaseGraph::max_degree() const noexcept {
  if (graph_ != nullptr) return graph_->max_degree();
  if (complete_) return static_cast<int>(n_ - 1);
  return static_cast<int>(2 * strides_->size());
}

void PhaseGraph::append_neighbors(NodeId v, std::vector<NodeId>& out) const {
  for_each_neighbor(v, [&out](NodeId w) { out.push_back(w); });
}

}  // namespace lft::graph
