// Unit tests for the graph substrate: CSR core, reference families,
// deterministic random-regular construction, LPS Ramanujan graphs, Margulis
// expanders, spectral estimation, and the certified overlay factory.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <thread>
#include <utility>
#include <vector>

#include "common/hash.hpp"
#include "common/math.hpp"
#include "common/rng.hpp"
#include "graph/families.hpp"
#include "graph/graph.hpp"
#include "graph/lps.hpp"
#include "graph/margulis.hpp"
#include "graph/overlay.hpp"
#include "graph/properties.hpp"
#include "graph/random_regular.hpp"
#include "graph/spectral.hpp"

namespace lft::graph {
namespace {

bool same_graph(const Graph& a, const Graph& b) {
  if (a.num_vertices() != b.num_vertices()) return false;
  for (NodeId v = 0; v < a.num_vertices(); ++v) {
    const auto na = a.neighbors(v);
    const auto nb = b.neighbors(v);
    if (!std::equal(na.begin(), na.end(), nb.begin(), nb.end())) return false;
  }
  return true;
}

/// 64-bit digest of a graph's CSR: n, then every row's length and entries.
std::uint64_t digest(const Graph& g) {
  std::uint64_t h = hash_combine(0, static_cast<std::uint64_t>(g.num_vertices()));
  for (NodeId v = 0; v < g.num_vertices(); ++v) {
    h = hash_combine(h, static_cast<std::uint64_t>(g.degree(v)));
    for (const NodeId w : g.neighbors(v)) h = hash_combine(h, static_cast<std::uint64_t>(w));
  }
  return h;
}

// ---- Graph core --------------------------------------------------------------

TEST(GraphCore, FromEdgesDedupsAndSorts) {
  std::vector<std::pair<NodeId, NodeId>> edges{{0, 1}, {1, 0}, {0, 1}, {2, 2}, {1, 2}};
  const Graph g = Graph::from_edges(3, edges);
  EXPECT_EQ(g.num_vertices(), 3);
  EXPECT_EQ(g.num_edges(), 2);  // (0,1) and (1,2); self-loop dropped
  EXPECT_EQ(g.degree(0), 1);
  EXPECT_EQ(g.degree(1), 2);
  const auto ns = g.neighbors(1);
  EXPECT_EQ(ns[0], 0);
  EXPECT_EQ(ns[1], 2);
  EXPECT_TRUE(g.has_edge(0, 1));
  EXPECT_TRUE(g.has_edge(1, 0));
  EXPECT_FALSE(g.has_edge(0, 2));
}

/// Reference CSR: per-row collect, sort, unique.
std::vector<std::vector<NodeId>> reference_rows(
    NodeId n, const std::vector<std::pair<NodeId, NodeId>>& edges) {
  std::vector<std::vector<NodeId>> rows(static_cast<std::size_t>(n));
  for (const auto& [u, v] : edges) {
    if (u == v) continue;
    rows[static_cast<std::size_t>(u)].push_back(v);
    rows[static_cast<std::size_t>(v)].push_back(u);
  }
  for (auto& row : rows) {
    std::sort(row.begin(), row.end());
    row.erase(std::unique(row.begin(), row.end()), row.end());
  }
  return rows;
}

TEST(GraphCore, FromEdgesMatchesSortUniqueReference) {
  struct Case {
    NodeId n;
    std::int64_t edges;
    NodeId endpoints;  // endpoints drawn from [0, endpoints): the rest are isolated
  };
  const std::vector<Case> cases = {
      {0, 0, 0},      {1, 0, 1},     {1, 5, 1},  // n = 0, n = 1 (self-loops only)
      {2, 9, 2},      {7, 40, 7},    {50, 300, 50},
      {300, 900, 120},                               // vertices 120..299 isolated
      {200, 12000, 200},                             // dense: ~0.6 n endpoints per vertex
  };
  Rng rng(0x5eed);
  for (const auto& c : cases) {
    for (int trial = 0; trial < 4; ++trial) {
      std::vector<std::pair<NodeId, NodeId>> edges;
      for (std::int64_t i = 0; i < c.edges; ++i) {
        const auto u = static_cast<NodeId>(rng.uniform(static_cast<std::uint64_t>(c.endpoints)));
        const auto v = static_cast<NodeId>(rng.uniform(static_cast<std::uint64_t>(c.endpoints)));
        edges.emplace_back(u, v);
        if (rng.uniform(8) == 0) edges.emplace_back(v, u);  // duplicate, reversed
        if (rng.uniform(16) == 0) edges.emplace_back(u, u);  // self-loop
      }
      const auto rows = reference_rows(c.n, edges);
      // Both with a fresh scratch buffer and with a donated, dirty one.
      const Graph g = Graph::from_edges(c.n, edges);
      const Graph donated =
          Graph::from_edges(c.n, edges, std::vector<NodeId>(edges.size() * 3 + 1, -7));
      std::int64_t entries = 0;
      for (NodeId v = 0; v < c.n; ++v) {
        const auto& want = rows[static_cast<std::size_t>(v)];
        const auto got = g.neighbors(v);
        ASSERT_TRUE(std::equal(got.begin(), got.end(), want.begin(), want.end()))
            << "n=" << c.n << " row " << v;
        entries += static_cast<std::int64_t>(want.size());
      }
      EXPECT_EQ(g.num_vertices(), c.n);
      EXPECT_EQ(g.num_edges() * 2, entries);
      EXPECT_TRUE(same_graph(g, donated));
    }
  }
}

TEST(GraphCore, EmptyGraph) {
  const Graph g = Graph::from_edges(4, {});
  EXPECT_EQ(g.num_vertices(), 4);
  EXPECT_EQ(g.num_edges(), 0);
  EXPECT_EQ(g.degree(2), 0);
  EXPECT_EQ(g.min_degree(), 0);
}

// ---- families ------------------------------------------------------------------

TEST(Families, CompleteGraph) {
  const Graph g = complete_graph(6);
  EXPECT_EQ(g.num_edges(), 15);
  EXPECT_TRUE(g.is_regular());
  EXPECT_EQ(g.max_degree(), 5);
  EXPECT_TRUE(is_connected(g));
}

TEST(Families, CompleteGraphEqualsItsEdgeList) {
  for (const NodeId n : {0, 1, 2, 3, 17, 64}) {
    std::vector<std::pair<NodeId, NodeId>> edges;
    for (NodeId u = 0; u < n; ++u) {
      for (NodeId v = u + 1; v < n; ++v) edges.emplace_back(u, v);
    }
    EXPECT_TRUE(same_graph(complete_graph(n), Graph::from_edges(n, edges))) << "n=" << n;
  }
}

TEST(Families, RingGraph) {
  const Graph g = ring_graph(10);
  EXPECT_EQ(g.num_edges(), 10);
  EXPECT_TRUE(g.is_regular());
  EXPECT_EQ(g.max_degree(), 2);
  EXPECT_TRUE(is_connected(g));
}

TEST(Families, StarGraph) {
  const Graph g = star_graph(8);
  EXPECT_EQ(g.degree(0), 7);
  EXPECT_EQ(g.degree(3), 1);
  EXPECT_TRUE(is_connected(g));
}

TEST(Families, Hypercube) {
  const Graph g = hypercube_graph(5);
  EXPECT_EQ(g.num_vertices(), 32);
  EXPECT_TRUE(g.is_regular());
  EXPECT_EQ(g.max_degree(), 5);
  EXPECT_TRUE(is_connected(g));
}

TEST(Families, Torus) {
  const Graph g = torus_graph(4, 5);
  EXPECT_EQ(g.num_vertices(), 20);
  EXPECT_TRUE(g.is_regular());
  EXPECT_EQ(g.max_degree(), 4);
  EXPECT_TRUE(is_connected(g));
}

// ---- random regular ---------------------------------------------------------------

TEST(RandomRegular, ProducesSimpleRegularGraph) {
  for (auto [n, d] : std::vector<std::pair<NodeId, int>>{{50, 4}, {101, 8}, {256, 16}}) {
    const Graph g = random_regular_graph(n, d, 1234);
    EXPECT_EQ(g.num_vertices(), n);
    EXPECT_TRUE(g.is_regular()) << "n=" << n << " d=" << d;
    EXPECT_EQ(g.max_degree(), d);
    EXPECT_EQ(g.num_edges(), static_cast<std::int64_t>(n) * d / 2);
  }
}

TEST(RandomRegular, DeterministicInSeed) {
  const Graph a = random_regular_graph(128, 6, 99);
  const Graph b = random_regular_graph(128, 6, 99);
  const Graph c = random_regular_graph(128, 6, 100);
  for (NodeId v = 0; v < 128; ++v) {
    const auto na = a.neighbors(v), nb = b.neighbors(v);
    ASSERT_EQ(na.size(), nb.size());
    for (std::size_t i = 0; i < na.size(); ++i) EXPECT_EQ(na[i], nb[i]);
  }
  bool any_diff = false;
  for (NodeId v = 0; v < 128 && !any_diff; ++v) {
    const auto na = a.neighbors(v), nc = c.neighbors(v);
    if (na.size() != nc.size()) {
      any_diff = true;
      break;
    }
    for (std::size_t i = 0; i < na.size(); ++i) {
      if (na[i] != nc[i]) {
        any_diff = true;
        break;
      }
    }
  }
  EXPECT_TRUE(any_diff);
}

TEST(RandomRegular, TypicallyConnectedAndExpanding) {
  const Graph g = random_regular_graph(500, 8, 7);
  EXPECT_TRUE(is_connected(g));
  EXPECT_LT(second_eigenvalue_estimate(g), 8.0 * 0.8);
}

// ---- LPS Ramanujan -----------------------------------------------------------------

TEST(Lps, SmallPslInstanceIsRamanujan) {
  // p=5, q=13: legendre(5,13)=-1? squares mod 13 are {1,3,4,9,10,12}; 5 is
  // not among them, so this is the bipartite PGL case with q(q^2-1)=2184
  // vertices. Use p=13? Instead pick from the catalog.
  const auto catalog = lps_catalog(3000);
  ASSERT_FALSE(catalog.empty());
  const auto params = catalog.front();
  const auto result = lps_graph(params.p, params.q);
  EXPECT_FALSE(result.bipartite);
  EXPECT_EQ(result.graph.num_vertices(), params.vertices);
  EXPECT_TRUE(result.graph.is_regular());
  EXPECT_EQ(result.graph.max_degree(), result.degree);
  EXPECT_TRUE(is_connected(result.graph));
  // The genuine Ramanujan bound, no slack.
  EXPECT_LE(second_eigenvalue_estimate(result.graph, 300),
            ramanujan_bound(result.degree) * 1.001);
}

TEST(Lps, BipartitePglInstance) {
  // p=5, q=13 has legendre(5,13) == -1 -> PGL, bipartite, 2184 vertices.
  ASSERT_EQ(lft::legendre(5, 13), -1);
  const auto result = lps_graph(5, 13);
  EXPECT_TRUE(result.bipartite);
  EXPECT_EQ(result.graph.num_vertices(), 13 * (13 * 13 - 1));
  EXPECT_TRUE(result.graph.is_regular());
  EXPECT_EQ(result.graph.max_degree(), 6);
  EXPECT_TRUE(is_connected(result.graph));
}

TEST(Lps, CatalogSorted) {
  const auto catalog = lps_catalog(30000);
  EXPECT_GE(catalog.size(), 2u);
  for (std::size_t i = 1; i < catalog.size(); ++i) {
    EXPECT_LE(catalog[i - 1].vertices, catalog[i].vertices);
  }
}

// ---- Margulis -----------------------------------------------------------------------

TEST(Margulis, SizeAndConnectivity) {
  const Graph g = margulis_graph(16);
  EXPECT_EQ(g.num_vertices(), 256);
  EXPECT_TRUE(is_connected(g));
  EXPECT_LE(g.max_degree(), 8);
  EXPECT_GE(g.min_degree(), 4);
}

TEST(Margulis, IsAnExpander) {
  const Graph g = margulis_graph(20);
  // Margulis bound: lambda <= 5*sqrt(2) ~ 7.07 < 8.
  EXPECT_LT(second_eigenvalue_estimate(g), 7.3);
  EXPECT_GT(edge_expansion_lower_bound(g), 0.2);
}

// ---- spectral ------------------------------------------------------------------------

TEST(Spectral, CompleteGraphLambdaIsOne) {
  // K_n spectrum: {n-1, -1, ..., -1}.
  const Graph g = complete_graph(40);
  EXPECT_NEAR(second_eigenvalue_estimate(g, 200), 1.0, 0.05);
}

TEST(Spectral, RingLambdaNearTwo) {
  const Graph g = ring_graph(64);
  EXPECT_NEAR(second_eigenvalue_estimate(g, 400), 2.0 * std::cos(2 * M_PI / 64), 0.05);
}

TEST(Spectral, HypercubeLambdaSeesBipartiteness) {
  // Q_d spectrum: d - 2k, including -d (bipartite), so
  // max(|lambda_2|, |lambda_n|) = d. The estimator must find it.
  const Graph g = hypercube_graph(6);
  EXPECT_NEAR(second_eigenvalue_estimate(g, 300), 6.0, 0.1);
}

TEST(Spectral, RamanujanBoundValue) {
  EXPECT_NEAR(ramanujan_bound(6), 2.0 * std::sqrt(5.0), 1e-12);
}

// ---- overlay provider -----------------------------------------------------------------

TEST(Overlay, FallsBackToCompleteForHighDegree) {
  const Graph g = make_overlay(10, 20, 1);
  EXPECT_EQ(g.num_edges(), 45);
  EXPECT_EQ(g.max_degree(), 9);
}

TEST(Overlay, ProducesCertifiedExpander) {
  const Graph g = make_overlay(300, 10, 7);
  EXPECT_EQ(g.num_vertices(), 300);
  EXPECT_TRUE(g.is_regular());
  EXPECT_TRUE(is_connected(g));
  EXPECT_LE(second_eigenvalue_estimate(g), ramanujan_bound(10) * 1.25 + 1e-9);
}

TEST(Overlay, BumpsOddParity) {
  // n and degree both odd -> n*d odd -> degree bumped to 6.
  const Graph g = make_overlay(101, 5, 3);
  EXPECT_EQ(g.max_degree(), 6);
  EXPECT_TRUE(g.is_regular());
}

TEST(Overlay, SharedOverlayCachesByKey) {
  clear_overlay_cache();
  const auto a = shared_overlay({200, 8, 42});
  const auto b = shared_overlay({200, 8, 42});
  const auto c = shared_overlay({200, 8, 43});
  EXPECT_EQ(a.get(), b.get());
  EXPECT_NE(a.get(), c.get());
}

TEST(Overlay, DeterministicAcrossCacheClears) {
  clear_overlay_cache();
  const auto a = shared_overlay({150, 6, 5});
  clear_overlay_cache();
  const auto b = shared_overlay({150, 6, 5});
  for (NodeId v = 0; v < 150; ++v) {
    const auto na = a->neighbors(v), nb = b->neighbors(v);
    ASSERT_EQ(na.size(), nb.size());
    for (std::size_t i = 0; i < na.size(); ++i) EXPECT_EQ(na[i], nb[i]);
  }
}

TEST(Overlay, CompleteOverlaysShareOneGraphPerN) {
  clear_overlay_cache();
  // Degree >= n - 1, or reaching it through the parity bump, is the complete
  // graph whatever the tag: one cache entry per n.
  const std::vector<OverlaySpec> specs = {{33, 32, 1}, {33, 40, 2}, {33, 31, 3}, {34, 33, 1}};
  const auto graphs = shared_overlays(specs);
  EXPECT_EQ(graphs[0].get(), graphs[1].get());
  EXPECT_EQ(graphs[0].get(), graphs[2].get());
  EXPECT_NE(graphs[0].get(), graphs[3].get());
  EXPECT_TRUE(same_graph(*graphs[0], complete_graph(33)));
  EXPECT_TRUE(same_graph(*graphs[3], complete_graph(34)));
}

TEST(Overlay, ConcurrentMissesOnOneKeyBuildItOnce) {
  clear_overlay_cache();
  const OverlaySpec spec{3000, 24, 0xC0FFEE};
  constexpr int kThreads = 8;
  std::vector<std::shared_ptr<const Graph>> got(kThreads);
  std::vector<std::thread> threads;
  for (int i = 0; i < kThreads; ++i) {
    threads.emplace_back(
        [&got, &spec, i] { got[static_cast<std::size_t>(i)] = shared_overlay(spec); });
  }
  for (auto& t : threads) t.join();
  for (const auto& g : got) EXPECT_EQ(g.get(), got.front().get());
  EXPECT_TRUE(same_graph(*got.front(), make_overlay(spec.n, spec.degree, spec.tag)));
}

TEST(Overlay, MixedBatchEqualsSerialMakeOverlayInAnyOrder) {
  // Two sparse specs large enough to build on threads, a dense one, a
  // complete one, degree <= 2, an odd n * d (parity bump), n = 1, a repeat.
  const std::vector<OverlaySpec> specs = {
      {70000, 16, 11}, {400, 240, 12}, {40000, 30, 13}, {600, 700, 14}, {500, 2, 15},
      {401, 1, 16},    {1001, 7, 17},  {1, 3, 18},      {70000, 16, 11}};
  std::vector<Graph> serial;
  for (const auto& s : specs) serial.push_back(make_overlay(s.n, s.degree, s.tag));

  for (const bool reversed : {false, true}) {
    clear_overlay_cache();
    std::vector<OverlaySpec> order = specs;
    if (reversed) std::reverse(order.begin(), order.end());
    const auto graphs = shared_overlays(order);
    ASSERT_EQ(graphs.size(), order.size());
    for (std::size_t i = 0; i < order.size(); ++i) {
      const std::size_t original = reversed ? order.size() - 1 - i : i;
      EXPECT_TRUE(same_graph(*graphs[i], serial[original])) << "spec " << original;
    }
  }
  EXPECT_EQ(serial[4].max_degree(), 2);
  EXPECT_EQ(serial[6].max_degree(), 8);
  EXPECT_EQ(serial[7].num_vertices(), 1);
}

TEST(Overlay, BitIdenticalToPinnedDigests) {
  // Digests (see digest()) recorded from the serial, one-overlay-at-a-time
  // construction: every overlay consensus_1e5 (n = 1e5, t = 5000) and
  // gossip_2k (n = 2048, t = 16) build, and those of five registry scenarios
  // at their default shape. A changed seed, pairing, repair or certification
  // decision changes a digest.
  struct Pin {
    OverlaySpec spec;
    std::uint64_t digest;
  };
  const std::vector<Pin> pins = {
      // consensus_1e5
      {{25000, 16, 0x65}, 0x7e9cf9c27fcd44e1ULL},
      {{100000, 12, 0x67}, 0xc1cbb5b8c6bedf5bULL},
      {{100000, 20, 0x3e8}, 0x1d9f9c03617744a2ULL},
      {{100000, 40, 0x3e9}, 0x674a85ca5dc614f5ULL},
      // gossip_2k
      {{80, 16, 0x65}, 0x5cb1072ebecba143ULL},
      {{2048, 20, 0xbb8}, 0xb27c16d1098a321cULL},
      {{2048, 40, 0xbb9}, 0xa4a18f7942342dd4ULL},
      {{2048, 80, 0xbba}, 0x155c73e8f647a4ccULL},
      {{2048, 160, 0xbbb}, 0x16a6af9c8ce75cd5ULL},
      {{2048, 320, 0xbbc}, 0xb91574fd2122500dULL},
      {{2048, 640, 0xbbd}, 0x5a95ef4b3f776c08ULL},
      {{2048, 1280, 0xbbe}, 0xdc489d41bd5403b2ULL},
      {{2048, 2047, 0xbbf}, 0xb37f80c1f1ed5a7dULL},
      {{2048, 2047, 0xbc0}, 0xb37f80c1f1ed5a7dULL},
      {{2048, 2047, 0xbc1}, 0xb37f80c1f1ed5a7dULL},
      {{2048, 2047, 0xbc2}, 0xb37f80c1f1ed5a7dULL},
      // crash_partial_sends
      {{96, 32, 0x66}, 0xe6eb80505d5f334aULL},
      {{96, 20, 0x5dc}, 0x2fe89455e6429ebdULL},
      {{96, 40, 0x5dd}, 0x0bd275dbf9944f21ULL},
      {{96, 80, 0x5de}, 0x453c38e9ad685be5ULL},
      {{96, 95, 0x5df}, 0xdbae049255964a48ULL},
      {{96, 95, 0x5e0}, 0xdbae049255964a48ULL},
      // crash_isolate_little
      {{150, 16, 0x65}, 0xb032501026ed4eb6ULL},
      {{200, 12, 0x67}, 0xeebcbc043f72a881ULL},
      {{200, 20, 0x3e8}, 0x5e59e2cd75643c14ULL},
      {{200, 40, 0x3e9}, 0xb072ddc2b976c7c3ULL},
      {{200, 80, 0x3ea}, 0x6bbb19aed8ef62f2ULL},
      {{200, 160, 0x3eb}, 0xbaba55440afcafdfULL},
      {{200, 199, 0x3ec}, 0x4d2ce5ab9ff8fcebULL},
      {{200, 199, 0x3ed}, 0x4d2ce5ab9ff8fcebULL},
      // byz_silent_little
      {{120, 12, 0xcc}, 0x0d90f15e2e6fa747ULL},
      // checkpoint_crash_boundary
      {{100, 16, 0xc0bb}, 0xa68e9a84f504971aULL},
      {{150, 20, 0xcb66}, 0x56f402e70ecb4b8bULL},
      {{150, 40, 0xcb67}, 0x6529deaea3634f7fULL},
      {{150, 80, 0xcb64}, 0x37acd2840c9a89cdULL},
      {{150, 149, 0xcb65}, 0xfb7aedf4ee89e746ULL},
      {{150, 149, 0xcb62}, 0xfb7aedf4ee89e746ULL},
      {{150, 149, 0xcb63}, 0xfb7aedf4ee89e746ULL},
      {{150, 149, 0xcb60}, 0xfb7aedf4ee89e746ULL},
      {{150, 149, 0xcb61}, 0xfb7aedf4ee89e746ULL},
      {{150, 12, 0xc0b9}, 0x11c36984ede0b28aULL},
      {{150, 20, 0xc7b2}, 0xe378033eb49378aeULL},
      {{150, 40, 0xc7b3}, 0x608bf2447b039e02ULL},
      {{150, 80, 0xc7b4}, 0x6fb9a9fee8e913d4ULL},
      {{150, 149, 0xc7b5}, 0xfb7aedf4ee89e746ULL},
      {{150, 149, 0xc7b6}, 0xfb7aedf4ee89e746ULL},
      {{150, 149, 0xc7b7}, 0xfb7aedf4ee89e746ULL},
      // service_slot_commit
      {{5, 4, 0x65}, 0x268605b49eb44720ULL},
      {{7, 6, 0x67}, 0xef24e714de624de1ULL},
  };
  clear_overlay_cache();
  std::vector<OverlaySpec> specs;
  for (const auto& pin : pins) specs.push_back(pin.spec);
  const auto graphs = shared_overlays(specs);
  for (std::size_t i = 0; i < pins.size(); ++i) {
    EXPECT_EQ(digest(*graphs[i]), pins[i].digest)
        << "n=" << pins[i].spec.n << " degree=" << pins[i].spec.degree << " tag=" << std::hex
        << pins[i].spec.tag;
  }
  clear_overlay_cache();
}

TEST(Overlay, SplitPowerIterationBitIdenticalToPinnedLambdas) {
  // Estimates recorded bit for bit from the serial power iteration, before
  // its sweeps could be split: a dense overlay (gossip_2k's largest, bitmap
  // edge set) and a sparse one (consensus_1e5's, hash edge set), both above
  // the 2^20-entry split threshold. The batch adds a complete graph, which
  // is built first and fast, so its thread serves the others' sweeps. The
  // pins are then checked with every sweep split among three threads.
  struct Pin {
    OverlaySpec spec;
    int iters;
    std::uint64_t digest;
    std::uint64_t lambda_bits;
  };
  const std::vector<Pin> pins = {
      {{2048, 1280, 0xbbe}, 150, 0xdc489d41bd5403b2ULL, 0x4045f33c114530daULL},
      {{100000, 12, 0x67}, 60, 0xc1cbb5b8c6bedf5bULL, 0x401a330d02add415ULL},
  };
  clear_overlay_cache();
  const auto graphs = shared_overlays(std::vector<OverlaySpec>{
      pins[0].spec, pins[1].spec, {2048, 2047, 0}});
  RowShare share;
  std::vector<std::thread> servers;
  for (int i = 0; i < 2; ++i) servers.emplace_back([&share] { share.serve(); });
  for (std::size_t i = 0; i < pins.size(); ++i) {
    const Graph& g = *graphs[i];
    EXPECT_EQ(digest(g), pins[i].digest) << "pin " << i;
    EXPECT_EQ(
        std::bit_cast<std::uint64_t>(second_eigenvalue_estimate(g, pins[i].iters, 0x5eed, &share)),
        pins[i].lambda_bits)
        << "pin " << i;
  }
  // Each y[v] must be summed in row order whichever thread writes it: a
  // reordered sum moves λ by an ulp or none, so compare short runs too.
  for (int iters = 1; iters <= 8; ++iters) {
    const double split = second_eigenvalue_estimate(*graphs[0], iters, 0x5eed, &share);
    const double serial = second_eigenvalue_estimate(*graphs[0], iters);
    EXPECT_EQ(std::bit_cast<std::uint64_t>(split), std::bit_cast<std::uint64_t>(serial))
        << "iters " << iters;
  }
  share.close();
  for (auto& t : servers) t.join();
  clear_overlay_cache();
}

}  // namespace
}  // namespace lft::graph
