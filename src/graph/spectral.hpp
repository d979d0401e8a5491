// Spectral certification of expanders. For a d-regular graph the paper's
// Ramanujan condition is lambda = max(|lambda_2|, |lambda_n|) <= 2*sqrt(d-1);
// we estimate lambda with power iteration on the adjacency operator after
// deflating the all-ones top eigenvector.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <span>

#include "graph/graph.hpp"

namespace lft::graph {

/// Shares the sweeps y = A x of running power iterations with threads that
/// have nothing else to do. multiply() splits a sweep into row blocks,
/// publishes it, takes blocks itself, and returns once every block is
/// written; any thread inside serve() takes blocks of published sweeps. Each
/// y[v] is the same in-order row sum whichever thread writes it, so a split
/// sweep is bit-identical to a serial one.
class RowShare {
 public:
  /// y = A x, rows split among this thread and the serving ones.
  void multiply(const Graph& g, std::span<const double> x, std::span<double> y);

  /// Takes row blocks of published sweeps until close() has been called.
  void serve();

  /// Ends serve() on every thread. Call it once no multiply() is running.
  void close();

 private:
  struct Sweep;

  [[nodiscard]] Sweep* open_sweep() const noexcept;

  std::mutex mutex_;
  std::condition_variable work_;  // a sweep was published, or close()
  std::condition_variable idle_;  // a server let go of a sweep
  Sweep* open_ = nullptr;         // published sweeps, linked through Sweep::next_open
  bool closed_ = false;
};

/// Estimate of lambda = max(|lambda_2|, |lambda_n|). Deterministic in seed.
/// The estimate converges from below; `iters` around 150 gives ~1% accuracy
/// on well-separated spectra. With `share`, every sweep goes through
/// share->multiply; the norms stay on the calling thread, so the estimate
/// is bit-identical to the serial one.
[[nodiscard]] double second_eigenvalue_estimate(const Graph& g, int iters = 150,
                                                std::uint64_t seed = 0x5eed,
                                                RowShare* share = nullptr);

/// Ramanujan bound 2*sqrt(d-1) for degree d.
[[nodiscard]] double ramanujan_bound(int degree);

/// Cheeger-style lower bound on the edge expansion of a d-regular graph:
/// h(G) >= (d - lambda_2) / 2 >= (d - lambda) / 2.
[[nodiscard]] double edge_expansion_lower_bound(const Graph& g);

}  // namespace lft::graph
