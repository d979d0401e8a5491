#include "graph/overlay.hpp"

#include <malloc.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <exception>
#include <future>
#include <map>
#include <mutex>
#include <thread>
#include <tuple>
#include <utility>

#include "common/assert.hpp"
#include "common/cpus.hpp"
#include "common/rng.hpp"
#include "graph/families.hpp"
#include "graph/properties.hpp"
#include "graph/random_regular.hpp"
#include "graph/spectral.hpp"

namespace lft::graph {

namespace {

constexpr std::uint64_t kOverlayPurpose = 0x4c46544f56455231ULL;  // "LFTOVER1"
constexpr std::uint64_t kCirculantPurpose = 0x4c4654494e515547ULL;  // "LFTINQUG"

// Spectral certification is statistically meaningful only for graphs that
// are not almost-complete; tiny instances are accepted on connectivity alone.
constexpr NodeId kSpectralMinVertices = 24;
constexpr double kSpectralSlack = 1.25;
constexpr int kMaxAttempts = 32;

// A batch spawns one build thread per overlay, beyond the first, of at
// least this many CSR entries (n * d; tens of milliseconds to build). A
// batch of smaller ones — every scenario-size overlay, built inside fleet
// workers — builds inline on the caller, like the engine's serial fallback.
// An overlay this large also shares its power iteration's sweeps with the
// batch's threads that have run out of builds.
constexpr std::int64_t kConcurrentMinEntries = std::int64_t{1} << 20;

using Key = std::tuple<NodeId, int, std::uint64_t>;
using Pending = std::shared_future<std::shared_ptr<const Graph>>;

std::mutex& cache_mutex() {
  static std::mutex m;
  return m;
}

// An entry is inserted, under the lock, before its graph is built, so a
// concurrent request for the same key waits on it instead of building it.
std::map<Key, Pending>& cache() {
  static std::map<Key, Pending> c;
  return c;
}

std::mutex& implicit_mutex() {
  static std::mutex m;
  return m;
}

// Orders spec lists lexicographically; transparent, so a lookup by span
// needs no vector of its own.
struct ListLess {
  using is_transparent = void;
  bool operator()(std::span<const OverlaySpec> a, std::span<const OverlaySpec> b) const {
    return std::lexicographical_compare(a.begin(), a.end(), b.begin(), b.end());
  }
};

std::map<std::vector<OverlaySpec>, std::vector<PhaseGraph>, ListLess>& implicit_lists() {
  static std::map<std::vector<OverlaySpec>, std::vector<PhaseGraph>, ListLess> c;
  return c;
}

/// The spec of the graph make_overlay actually builds: the degree after
/// the parity bump, and one complete graph per n whatever the tag.
OverlaySpec canonical(const OverlaySpec& spec) {
  LFT_ASSERT(spec.n >= 1);
  // Checked first, so a one-node system's degree 0 is its complete graph.
  if (spec.degree >= spec.n - 1) return {spec.n, spec.n - 1, 0};
  LFT_ASSERT(spec.degree >= 1);
  int d = spec.degree;
  if ((static_cast<std::int64_t>(spec.n) * d) % 2 != 0) ++d;
  if (d >= spec.n - 1) return {spec.n, spec.n - 1, 0};
  return {spec.n, d, spec.tag};
}

Key key_of(const OverlaySpec& spec) { return {spec.n, spec.degree, spec.tag}; }

std::int64_t entries(const OverlaySpec& spec) {
  return static_cast<std::int64_t>(spec.n) * spec.degree;
}

/// `share`, when given, splits the power iteration of an overlay of at
/// least kConcurrentMinEntries entries among the batch's idle threads.
Graph build(const OverlaySpec& spec, RowShare* share = nullptr) {
  const NodeId n = spec.n;
  const int d = spec.degree;
  if (d >= n - 1) return complete_graph(n);

  // Degree <= 2 graphs (matchings, cycle unions) cannot be certified as
  // expanders; they only arise in degenerate configurations (t = 0 caps),
  // where any simple regular graph serves.
  if (d <= 2) {
    return random_regular_graph(
        n, d, make_seed(kOverlayPurpose, static_cast<std::uint64_t>(n),
                        static_cast<std::uint64_t>(d), spec.tag));
  }

  // Power-iteration cost scales with n*d*iters, and the 1.25 certification
  // slack tolerates a coarser estimate (which converges from below), so
  // large overlays use fewer iterations.
  const int spectral_iters = n >= 20000 ? 60 : 150;
  RowShare* const split = entries(spec) >= kConcurrentMinEntries ? share : nullptr;
  for (int attempt = 0; attempt < kMaxAttempts; ++attempt) {
    const std::uint64_t seed =
        make_seed(kOverlayPurpose, static_cast<std::uint64_t>(n), static_cast<std::uint64_t>(d),
                  spec.tag ^ static_cast<std::uint64_t>(attempt));
    Graph g = random_regular_graph(n, d, seed);
    if (!is_connected(g)) continue;
    if (n >= kSpectralMinVertices && d >= 3 &&
        second_eigenvalue_estimate(g, spectral_iters, 0x5eed, split) >
            ramanujan_bound(d) * kSpectralSlack) {
      continue;
    }
    return g;
  }
  LFT_ASSERT_MSG(false, "failed to certify an expander overlay");
  return Graph{};
}

struct Job {
  OverlaySpec spec;
  std::promise<std::shared_ptr<const Graph>> done;
};

void run(Job& job, RowShare* share) {
  try {
    job.done.set_value(std::make_shared<const Graph>(build(job.spec, share)));
  } catch (...) {
    // A failed build (bad_alloc) leaves no entry behind, so a later request
    // retries it; the requests already waiting get the exception.
    {
      std::lock_guard<std::mutex> lock(cache_mutex());
      cache().erase(key_of(job.spec));
    }
    job.done.set_exception(std::current_exception());
  }
}

/// Builds every job before returning: largest first, off one shared index,
/// on the caller plus one short-lived thread per further large job (at most
/// usable_cpus() in all). A thread that finds the index exhausted
/// serves row blocks of the power iterations still running until the last
/// build is done.
void run_all(std::vector<Job>& jobs) {
  std::stable_sort(jobs.begin(), jobs.end(), [](const Job& a, const Job& b) {
    return entries(a.spec) > entries(b.spec);
  });
  const auto large = static_cast<std::size_t>(
      std::count_if(jobs.begin(), jobs.end(),
                    [](const Job& j) { return entries(j.spec) >= kConcurrentMinEntries; }));
  const std::size_t workers =
      std::min<std::size_t>(large, static_cast<std::size_t>(usable_cpus()));

  RowShare rows;
  RowShare* const share = workers > 1 ? &rows : nullptr;
  std::atomic<std::size_t> next{0};
  std::atomic<std::size_t> finished{0};
  auto drain = [&] {
    for (std::size_t i; (i = next.fetch_add(1, std::memory_order_relaxed)) < jobs.size();) {
      run(jobs[i], share);
      if (finished.fetch_add(1, std::memory_order_acq_rel) + 1 == jobs.size()) rows.close();
    }
    rows.serve();
  };
  std::vector<std::thread> helpers;
  try {
    helpers.reserve(workers);
    for (std::size_t k = 1; k < workers; ++k) helpers.emplace_back(drain);
  } catch (...) {
    // A helper that could not start only leaves more jobs to the caller;
    // the ones already started are joined below.
  }
  drain();
  for (auto& h : helpers) h.join();
  // The helpers' freed temporaries stay cached in their malloc arenas, which
  // the simulation that follows never reuses; hand them back. Without this,
  // consensus_1e5's peak RSS grows by ~60 MB (348 -> 406-413 MB).
  if (!helpers.empty()) malloc_trim(0);
}

}  // namespace

Graph make_overlay(NodeId n, int degree, std::uint64_t tag) {
  return build(canonical({n, degree, tag}));
}

std::vector<std::shared_ptr<const Graph>> shared_overlays(std::span<const OverlaySpec> specs) {
  std::vector<std::shared_ptr<const Graph>> graphs(specs.size());
  std::vector<std::pair<std::size_t, Pending>> waits;  // builds not finished at lookup
  std::vector<Job> jobs;
  {
    std::lock_guard<std::mutex> lock(cache_mutex());
    try {
      for (std::size_t i = 0; i < specs.size(); ++i) {
        const OverlaySpec key = canonical(specs[i]);
        auto [it, inserted] = cache().try_emplace(key_of(key));
        if (inserted) {
          try {
            jobs.push_back(Job{key, {}});
          } catch (...) {
            cache().erase(it);
            throw;
          }
          it->second = jobs.back().done.get_future().share();
        }
        // The common case, every process of a configuration after the first,
        // is a finished build: take its graph without copying the future.
        if (it->second.wait_for(std::chrono::seconds(0)) == std::future_status::ready) {
          graphs[i] = it->second.get();
        } else {
          waits.emplace_back(i, it->second);
        }
      }
    } catch (...) {
      // Still under the lock, so nobody has seen this call's entries: drop
      // them, since their builds will never run.
      for (const Job& job : jobs) cache().erase(key_of(job.spec));
      throw;
    }
  }
  if (!jobs.empty()) run_all(jobs);
  for (const auto& [i, pending] : waits) graphs[i] = pending.get();
  return graphs;
}

std::shared_ptr<const Graph> shared_overlay(const OverlaySpec& spec) {
  return shared_overlays({&spec, 1}).front();
}

void append_implicit_overlays(std::span<const OverlaySpec> specs, std::vector<PhaseGraph>& out) {
  std::lock_guard<std::mutex> lock(implicit_mutex());
  auto it = implicit_lists().find(specs);
  if (it == implicit_lists().end()) {
    std::vector<PhaseGraph> phases;
    phases.reserve(specs.size());
    for (const auto& spec : specs) {
      const NodeId n = spec.n;
      const int d = spec.degree;
      phases.push_back(d >= n - 1 ? PhaseGraph::complete(n)
                                  : PhaseGraph::circulant(
                                        n, d,
                                        make_seed(kCirculantPurpose, static_cast<std::uint64_t>(n),
                                                  static_cast<std::uint64_t>(d), spec.tag)));
    }
    it = implicit_lists()
             .emplace(std::vector<OverlaySpec>(specs.begin(), specs.end()), std::move(phases))
             .first;
  }
  out.insert(out.end(), it->second.begin(), it->second.end());
}

void clear_overlay_cache() {
  {
    std::lock_guard<std::mutex> lock(cache_mutex());
    cache().clear();
  }
  std::lock_guard<std::mutex> lock(implicit_mutex());
  implicit_lists().clear();
}

}  // namespace lft::graph
