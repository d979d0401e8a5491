// Certified deterministic expander factory. The paper's algorithms assume
// every node can derive the same Ramanujan overlay from the public
// parameters (n, t); this factory realizes that: the returned graph is a
// pure function of (n, degree, tag). Instances are certified spectrally
// (near-Ramanujan) and for connectivity, retrying seeds deterministically,
// and cached so repeated protocol configurations share one graph.
//
// A protocol configuration asks for all of its overlays in one batch
// (shared_overlays): the uncached ones build concurrently, largest first,
// and the batch returns when every graph is ready. Concurrency never
// changes a bit: each graph is the same pure function of its spec.
#pragma once

#include <compare>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "graph/graph.hpp"
#include "graph/phase_graph.hpp"

namespace lft::graph {

/// One overlay request: a near-Ramanujan `degree`-regular graph on n
/// vertices. Degree is clamped to n-1 (complete graph) and bumped by one when
/// n*degree is odd. `tag` separates overlays used for different purposes so
/// protocols never accidentally share topology; complete graphs ignore it.
struct OverlaySpec {
  NodeId n = 0;
  int degree = 0;
  std::uint64_t tag = 0;
  friend auto operator<=>(const OverlaySpec&, const OverlaySpec&) = default;
};

/// Returns every spec's overlay, in spec order, from the cache. Uncached
/// overlays are built before the call returns: concurrently, largest n*d
/// first, when the batch holds more than one large overlay, and inline on
/// the caller otherwise. A spec already being built by another caller is
/// waited for, never built twice.
[[nodiscard]] std::vector<std::shared_ptr<const Graph>> shared_overlays(
    std::span<const OverlaySpec> specs);

/// The one-element shared_overlays.
[[nodiscard]] std::shared_ptr<const Graph> shared_overlay(const OverlaySpec& spec);

/// Appends, in spec order, the implicit PhaseGraph of each spec: overlays
/// too large to materialize. A spec of degree >= n-1 is the complete graph;
/// any other is a circulant seeded from (n, degree, tag). Each distinct list
/// of specs is assembled once and cached under the specs themselves, so
/// every process of a configuration copies it with one lookup.
void append_implicit_overlays(std::span<const OverlaySpec> specs, std::vector<PhaseGraph>& out);

/// Non-cached variant, mainly for tests.
[[nodiscard]] Graph make_overlay(NodeId n, int degree, std::uint64_t tag);

/// Drops the overlay cache and the cached implicit lists (test isolation /
/// memory reclamation). Circulant stride sets stay cached: every circulant
/// PhaseGraph still alive points into them.
void clear_overlay_cache();

}  // namespace lft::graph
