// Shared plumbing of the perfbench binary: options, the result record every
// workload fills, raw-sample statistics, and seed derivation.
//
// Every percentile here is nearest-rank over the raw samples the benchmark
// collected itself; obs::Histogram is only ever read for its exact sums and
// counts, never for its bucketed percentiles.
#pragma once

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include "obs/obs.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Corrupts one expected value, to prove the correctness gate fires.
  bool break_check = false;
};

/// What one workload run reports. Checks count toward attempted/failed
/// (the fail fraction); a failed check also makes the run incorrect.
class Result {
 public:
  void metric(const std::string& name, double value, const std::string& unit) {
    metrics_.push_back({name, value, unit});
  }
  /// Records a batch of `attempted` operations of which `failed` failed.
  void tally(std::int64_t attempted, std::int64_t failed, const std::string& what) {
    attempted_ += attempted;
    failed_ += failed;
    if (failed > 0 && failures_.size() < 8) failures_.push_back(what);
  }
  /// Records one checked operation; false marks it failed.
  void check(bool ok, const std::string& what) { tally(1, ok ? 0 : 1, what); }
  /// A run-level consistency check that is not an operation of its own
  /// (reconciliation, environment pinning): fails the run without counting
  /// toward attempted.
  void require(bool ok, const std::string& what) {
    if (!ok) {
      consistent_ = false;
      if (failures_.size() < 8) failures_.push_back(what);
    }
  }

  [[nodiscard]] std::int64_t attempted() const noexcept { return attempted_; }
  [[nodiscard]] std::int64_t failed() const noexcept { return failed_; }
  [[nodiscard]] bool correct() const noexcept {
    return consistent_ && failed_ == 0 && attempted_ > 0;
  }
  [[nodiscard]] double ok_frac() const noexcept {
    return attempted_ == 0 ? 0.0
                           : static_cast<double>(attempted_ - failed_) /
                                 static_cast<double>(attempted_);
  }
  [[nodiscard]] const std::vector<std::string>& failures() const noexcept { return failures_; }

  struct Metric {
    std::string name;
    double value;
    std::string unit;
  };
  [[nodiscard]] const std::vector<Metric>& metrics() const noexcept { return metrics_; }

 private:
  std::vector<Metric> metrics_;
  std::vector<std::string> failures_;
  std::int64_t attempted_ = 0;
  std::int64_t failed_ = 0;
  bool consistent_ = true;
};

/// Nearest-rank percentile (p in (0, 100]) of raw samples; 0 when empty.
[[nodiscard]] inline double nearest_rank(std::vector<double> samples, double p) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const double rank = std::ceil(p / 100.0 * static_cast<double>(samples.size()));
  const auto index = static_cast<std::size_t>(std::max(1.0, rank)) - 1;
  return samples[std::min(index, samples.size() - 1)];
}

[[nodiscard]] inline double median(const std::vector<double>& samples) {
  return nearest_rank(samples, 50.0);
}

// Exact readings of a telemetry snapshot: counters, and histogram sums and
// counts. A metric the snapshot lacks reads 0.
[[nodiscard]] inline double counter_value(const lft::obs::Snapshot& snap, const char* name) {
  const auto* row = snap.find_counter(name);
  return row == nullptr ? 0.0 : static_cast<double>(row->value);
}
[[nodiscard]] inline double histogram_sum(const lft::obs::Snapshot& snap, const char* name) {
  const auto* row = snap.find_histogram(name);
  return row == nullptr ? 0.0 : static_cast<double>(row->data.sum());
}
[[nodiscard]] inline double histogram_count(const lft::obs::Snapshot& snap, const char* name) {
  const auto* row = snap.find_histogram(name);
  return row == nullptr ? 0.0 : static_cast<double>(row->data.count());
}

/// splitmix64 step: derives independent per-purpose seeds from --seed.
[[nodiscard]] inline std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t stream) {
  std::uint64_t z = seed + 0x9e3779b97f4a7c15ULL * (stream + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

/// Exact engine totals read from an `lft_engine_*` telemetry snapshot:
/// counters, gauge maxima, and histogram *sums* only.
struct EngineTotals {
  double rounds = 0;
  double active_node_rounds = 0;  ///< Σ lft_engine_round_active
  double sent = 0;
  double delivered = 0;
  double lost = 0;
  double delayed = 0;
  double step_ns = 0;  ///< Σ lft_engine_step_ns: time inside Process::on_round calls
  double arena_bytes = 0;

  [[nodiscard]] static EngineTotals from(const lft::obs::Snapshot& snapshot);
};

/// Emits the engine-layer metrics (sim.*, core.step_ms, core.ns_per_node_step)
/// for `totals` accumulated over `run_ms` of Engine::run wall time; every
/// value is per unit of work the caller divided by (one execution, one sweep).
void emit_engine_layers(Result& result, const EngineTotals& totals, double run_ms);

/// Peak resident set of this process so far, in MiB.
[[nodiscard]] double peak_rss_mb();

/// The four workloads. Each fills `result` with its end-to-end metrics
/// (untraced run) or its per-layer metrics (traced run).
void run_consensus_1e5(const Options& options, Result& result);
void run_gossip_2k(const Options& options, Result& result);
void run_fault_sweep(const Options& options, Result& result);
void run_serve_closed(const Options& options, Result& result);

}  // namespace perfbench
