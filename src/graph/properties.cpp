#include "graph/properties.hpp"

#include <algorithm>
#include <queue>

#include "common/assert.hpp"
#include "common/rng.hpp"

namespace lft::graph {

DynamicBitset survival_subset(const Graph& g, const DynamicBitset& b, int delta) {
  const auto n = static_cast<std::size_t>(g.num_vertices());
  LFT_ASSERT(b.size() == n);

  DynamicBitset core = b;
  std::vector<int> deg(n, 0);
  core.for_each([&](std::size_t v) {
    int d = 0;
    for (NodeId w : g.neighbors(static_cast<NodeId>(v))) {
      if (core.test(static_cast<std::size_t>(w))) ++d;
    }
    deg[v] = d;
  });

  std::queue<NodeId> peel;
  core.for_each([&](std::size_t v) {
    if (deg[v] < delta) peel.push(static_cast<NodeId>(v));
  });

  while (!peel.empty()) {
    const NodeId v = peel.front();
    peel.pop();
    if (!core.test(static_cast<std::size_t>(v))) continue;
    core.set(static_cast<std::size_t>(v), false);
    for (NodeId w : g.neighbors(v)) {
      const auto wi = static_cast<std::size_t>(w);
      if (core.test(wi) && --deg[wi] < delta) peel.push(w);
    }
  }
  return core;
}

namespace {

// Peels the ball N^gamma(v) | alive down to its maximal (gamma, delta)-dense
// subset: vertices within distance gamma-1 of v must keep >= delta neighbors
// in the set (the outermost shell is exempt, per the paper's definition).
DynamicBitset dense_candidate(const Graph& g, NodeId v, int gamma, int delta,
                              const DynamicBitset& alive) {
  const auto n = static_cast<std::size_t>(g.num_vertices());
  LFT_ASSERT(alive.size() == n);
  if (!alive.test(static_cast<std::size_t>(v))) return DynamicBitset(n);

  // BFS distances within alive, bounded by gamma.
  std::vector<int> dist(n, -1);
  std::queue<NodeId> bfs;
  dist[static_cast<std::size_t>(v)] = 0;
  bfs.push(v);
  DynamicBitset s(n);
  s.set(static_cast<std::size_t>(v));
  while (!bfs.empty()) {
    const NodeId u = bfs.front();
    bfs.pop();
    const int du = dist[static_cast<std::size_t>(u)];
    if (du == gamma) continue;
    for (NodeId w : g.neighbors(u)) {
      const auto wi = static_cast<std::size_t>(w);
      if (!alive.test(wi) || dist[wi] >= 0) continue;
      dist[wi] = du + 1;
      s.set(wi);
      bfs.push(w);
    }
  }

  // Peel inner-shell vertices (distance <= gamma-1) whose degree in S drops
  // below delta.
  std::vector<int> deg(n, 0);
  s.for_each([&](std::size_t u) {
    int d = 0;
    for (NodeId w : g.neighbors(static_cast<NodeId>(u))) {
      if (s.test(static_cast<std::size_t>(w))) ++d;
    }
    deg[u] = d;
  });
  std::queue<NodeId> peel;
  s.for_each([&](std::size_t u) {
    if (dist[u] <= gamma - 1 && deg[u] < delta) peel.push(static_cast<NodeId>(u));
  });
  while (!peel.empty()) {
    const NodeId u = peel.front();
    peel.pop();
    const auto ui = static_cast<std::size_t>(u);
    if (!s.test(ui)) continue;
    s.set(ui, false);
    for (NodeId w : g.neighbors(u)) {
      const auto wi = static_cast<std::size_t>(w);
      if (s.test(wi) && --deg[wi] < delta && dist[wi] <= gamma - 1) peel.push(w);
    }
  }
  return s;
}

}  // namespace

bool has_dense_neighborhood(const Graph& g, NodeId v, int gamma, int delta,
                            const DynamicBitset& alive) {
  const DynamicBitset s = dense_candidate(g, v, gamma, delta, alive);
  return s.test(static_cast<std::size_t>(v));
}

std::size_t dense_neighborhood_size(const Graph& g, NodeId v, int gamma, int delta,
                                    const DynamicBitset& alive) {
  const DynamicBitset s = dense_candidate(g, v, gamma, delta, alive);
  return s.test(static_cast<std::size_t>(v)) ? s.count() : 0;
}

DynamicBitset neighborhood_ball(const Graph& g, NodeId seed, int radius,
                                const DynamicBitset& alive) {
  const auto n = static_cast<std::size_t>(g.num_vertices());
  DynamicBitset ball(n);
  if (!alive.test(static_cast<std::size_t>(seed))) return ball;
  std::vector<int> dist(n, -1);
  std::queue<NodeId> bfs;
  dist[static_cast<std::size_t>(seed)] = 0;
  ball.set(static_cast<std::size_t>(seed));
  bfs.push(seed);
  while (!bfs.empty()) {
    const NodeId u = bfs.front();
    bfs.pop();
    if (dist[static_cast<std::size_t>(u)] == radius) continue;
    for (NodeId w : g.neighbors(u)) {
      const auto wi = static_cast<std::size_t>(w);
      if (!alive.test(wi) || dist[wi] >= 0) continue;
      dist[wi] = dist[static_cast<std::size_t>(u)] + 1;
      ball.set(wi);
      bfs.push(w);
    }
  }
  return ball;
}

std::int64_t edges_between(const Graph& g, const DynamicBitset& a, const DynamicBitset& b) {
  std::int64_t count = 0;
  a.for_each([&](std::size_t u) {
    for (NodeId w : g.neighbors(static_cast<NodeId>(u))) {
      if (b.test(static_cast<std::size_t>(w))) ++count;
    }
  });
  return count;
}

std::int64_t volume(const Graph& g, const DynamicBitset& s) {
  std::int64_t twice = 0;
  s.for_each([&](std::size_t u) {
    for (NodeId w : g.neighbors(static_cast<NodeId>(u))) {
      if (s.test(static_cast<std::size_t>(w))) ++twice;
    }
  });
  return twice / 2;
}

std::int64_t edge_boundary(const Graph& g, const DynamicBitset& s) {
  std::int64_t count = 0;
  s.for_each([&](std::size_t u) {
    for (NodeId w : g.neighbors(static_cast<NodeId>(u))) {
      if (!s.test(static_cast<std::size_t>(w))) ++count;
    }
  });
  return count;
}

std::int64_t external_neighbor_count(const Graph& g, const DynamicBitset& s) {
  DynamicBitset ext(s.size());
  s.for_each([&](std::size_t u) {
    for (NodeId w : g.neighbors(static_cast<NodeId>(u))) {
      if (!s.test(static_cast<std::size_t>(w))) ext.set(static_cast<std::size_t>(w));
    }
  });
  return static_cast<std::int64_t>(ext.count());
}

std::vector<int> connected_components(const Graph& g, const DynamicBitset& alive) {
  const auto n = static_cast<std::size_t>(g.num_vertices());
  LFT_ASSERT(alive.size() == n);
  std::vector<int> label(n, -1);
  int next = 0;
  for (std::size_t start = 0; start < n; ++start) {
    if (!alive.test(start) || label[start] >= 0) continue;
    const int c = next++;
    std::queue<NodeId> bfs;
    label[start] = c;
    bfs.push(static_cast<NodeId>(start));
    while (!bfs.empty()) {
      const NodeId u = bfs.front();
      bfs.pop();
      for (NodeId w : g.neighbors(u)) {
        const auto wi = static_cast<std::size_t>(w);
        if (alive.test(wi) && label[wi] < 0) {
          label[wi] = c;
          bfs.push(w);
        }
      }
    }
  }
  return label;
}

bool is_connected(const Graph& g) {
  // One BFS from vertex 0 that stops as soon as it has reached every vertex:
  // on an expander that is long before the queue drains.
  const auto n = static_cast<std::size_t>(g.num_vertices());
  if (n == 0) return true;
  std::vector<char> reached(n, 0);
  std::vector<NodeId> queue;
  queue.reserve(n);
  reached[0] = 1;
  queue.push_back(0);
  for (std::size_t head = 0; head < queue.size() && queue.size() < n; ++head) {
    for (const NodeId w : g.neighbors(queue[head])) {
      if (reached[static_cast<std::size_t>(w)] != 0) continue;
      reached[static_cast<std::size_t>(w)] = 1;
      queue.push_back(w);
    }
  }
  return queue.size() == n;
}

namespace {

// BFS-ordered list of the first `ell` vertices around seed (a "ball"), the
// adversarial shape for refuting expansion in low-diameter-free graphs.
DynamicBitset bfs_ball_of_size(const Graph& g, NodeId seed, std::int64_t ell) {
  const auto n = static_cast<std::size_t>(g.num_vertices());
  DynamicBitset ball(n);
  std::queue<NodeId> bfs;
  ball.set(static_cast<std::size_t>(seed));
  bfs.push(seed);
  std::int64_t taken = 1;
  while (!bfs.empty() && taken < ell) {
    const NodeId u = bfs.front();
    bfs.pop();
    for (NodeId w : g.neighbors(u)) {
      const auto wi = static_cast<std::size_t>(w);
      if (ball.test(wi)) continue;
      ball.set(wi);
      bfs.push(w);
      if (++taken == ell) break;
    }
  }
  return ball;
}

}  // namespace

bool sampled_ell_expansion(const Graph& g, std::int64_t ell, int samples, std::uint64_t seed) {
  const NodeId n = g.num_vertices();
  if (2 * ell > n) return true;  // vacuous: no two disjoint ell-sets exist
  Rng rng(seed);
  std::vector<NodeId> perm(static_cast<std::size_t>(n));
  for (NodeId v = 0; v < n; ++v) perm[static_cast<std::size_t>(v)] = v;

  DynamicBitset all(static_cast<std::size_t>(n));
  all.set_all();

  for (int s = 0; s < samples; ++s) {
    DynamicBitset a(static_cast<std::size_t>(n)), b(static_cast<std::size_t>(n));
    if (s % 2 == 0) {
      // Random disjoint sets.
      rng.shuffle(std::span<NodeId>(perm));
      for (std::int64_t i = 0; i < ell; ++i) {
        a.set(static_cast<std::size_t>(perm[static_cast<std::size_t>(i)]));
        b.set(static_cast<std::size_t>(perm[static_cast<std::size_t>(ell + i)]));
      }
    } else {
      // Adversarial shape: a BFS ball around a random seed vs. a ball around
      // a most-distant vertex (catches rings, grids, and other thin graphs).
      const NodeId seed_v = static_cast<NodeId>(rng.uniform(static_cast<std::uint64_t>(n)));
      a = bfs_ball_of_size(g, seed_v, ell);
      // Farthest vertex from the seed.
      DynamicBitset reached = neighborhood_ball(g, seed_v, 0, all);
      NodeId far = seed_v;
      for (int radius = 1; radius <= n; ++radius) {
        DynamicBitset next = neighborhood_ball(g, seed_v, radius, all);
        if (next.count() == reached.count()) break;
        const DynamicBitset shell = next.minus(reached);
        far = static_cast<NodeId>(shell.find_first());
        reached = std::move(next);
      }
      b = bfs_ball_of_size(g, far, ell);
      const DynamicBitset overlap = a.minus(a.minus(b));
      if (overlap.count() > 0) continue;  // balls met: not a disjoint witness
    }
    if (edges_between(g, a, b) == 0) return false;
  }
  return true;
}

}  // namespace lft::graph
