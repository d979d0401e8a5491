#include "graph/spectral.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <vector>

#include "common/assert.hpp"
#include "common/rng.hpp"

namespace lft::graph {

namespace {

// A shared sweep is cut into this many row blocks: enough for a few
// threads to even out, few enough that each block is thousands of entries.
constexpr NodeId kSweepBlocks = 64;

// Removes the component along the all-ones direction and normalizes.
void deflate_and_normalize(std::vector<double>& x) {
  const auto n = static_cast<double>(x.size());
  double mean = 0;
  for (double v : x) mean += v;
  mean /= n;
  double norm = 0;
  for (double& v : x) {
    v -= mean;
    norm += v * v;
  }
  norm = std::sqrt(norm);
  if (norm > 0) {
    for (double& v : x) v /= norm;
  }
}

/// y[v] = sum of x over v's neighbors, in row order, for v in [begin, end).
void multiply_rows(const Graph& g, const double* x, double* y, NodeId begin, NodeId end) {
  for (NodeId v = begin; v < end; ++v) {
    double acc = 0;
    for (NodeId w : g.neighbors(v)) acc += x[static_cast<std::size_t>(w)];
    y[static_cast<std::size_t>(v)] = acc;
  }
}

}  // namespace

struct RowShare::Sweep {
  const Graph* g;
  const double* x;
  double* y;
  NodeId rows_per_block;
  std::atomic<NodeId> next_block{0};
  int servers = 0;  // under mutex_: threads that may still take a block
  Sweep* next_open = nullptr;

  [[nodiscard]] bool exhausted() const noexcept {
    return next_block.load(std::memory_order_relaxed) >= kSweepBlocks;
  }

  /// Takes and computes blocks until none is left.
  void work() {
    const NodeId n = g->num_vertices();
    for (NodeId b; (b = next_block.fetch_add(1, std::memory_order_relaxed)) < kSweepBlocks;) {
      const NodeId begin = std::min(n, b * rows_per_block);
      multiply_rows(*g, x, y, begin, std::min(n, begin + rows_per_block));
    }
  }
};

RowShare::Sweep* RowShare::open_sweep() const noexcept {
  for (Sweep* s = open_; s != nullptr; s = s->next_open) {
    if (!s->exhausted()) return s;
  }
  return nullptr;
}

void RowShare::multiply(const Graph& g, std::span<const double> x, std::span<double> y) {
  const NodeId n = g.num_vertices();
  Sweep sweep{&g, x.data(), y.data(), (n + kSweepBlocks - 1) / kSweepBlocks};
  {
    std::lock_guard<std::mutex> lock(mutex_);
    sweep.next_open = open_;
    open_ = &sweep;
  }
  work_.notify_all();
  sweep.work();
  // Unpublish, then wait for every server that joined to finish its block:
  // their writes to y happen before they let go under the mutex.
  std::unique_lock<std::mutex> lock(mutex_);
  Sweep** link = &open_;
  while (*link != &sweep) link = &(*link)->next_open;
  *link = sweep.next_open;
  idle_.wait(lock, [&] { return sweep.servers == 0; });
}

void RowShare::serve() {
  std::unique_lock<std::mutex> lock(mutex_);
  for (;;) {
    Sweep* sweep = nullptr;
    work_.wait(lock, [&] { return (sweep = open_sweep()) != nullptr || closed_; });
    if (sweep == nullptr) return;
    ++sweep->servers;
    lock.unlock();
    sweep->work();
    lock.lock();
    if (--sweep->servers == 0) idle_.notify_all();
  }
}

void RowShare::close() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    closed_ = true;
  }
  work_.notify_all();
}

double second_eigenvalue_estimate(const Graph& g, int iters, std::uint64_t seed,
                                  RowShare* share) {
  const NodeId n = g.num_vertices();
  LFT_ASSERT(n >= 2);
  Rng rng(seed);
  std::vector<double> x(static_cast<std::size_t>(n));
  for (double& v : x) v = static_cast<double>(rng.uniform(1u << 20)) / (1u << 20) - 0.5;
  deflate_and_normalize(x);

  std::vector<double> y(static_cast<std::size_t>(n));
  double lambda = 0;
  for (int it = 0; it < iters; ++it) {
    if (share != nullptr) {
      share->multiply(g, x, y);
    } else {
      multiply_rows(g, x.data(), y.data(), 0, n);
    }
    double norm = 0;
    for (double v : y) norm += v * v;
    lambda = std::sqrt(norm);  // ||A x|| with ||x|| = 1
    x.swap(y);
    deflate_and_normalize(x);
  }
  return lambda;
}

double ramanujan_bound(int degree) {
  LFT_ASSERT(degree >= 2);
  return 2.0 * std::sqrt(static_cast<double>(degree - 1));
}

double edge_expansion_lower_bound(const Graph& g) {
  const double lambda = second_eigenvalue_estimate(g);
  const double d = g.max_degree();
  const double bound = (d - lambda) / 2.0;
  return bound > 0 ? bound : 0.0;
}

}  // namespace lft::graph
