// Shared helpers for the bench binaries: fixed-width paper-style table
// printing (paper_claims prints its 15 tables with it; the google-benchmark
// binaries print their table before their timings) and common workload
// construction.
#pragma once

#include <cstdio>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "common/types.hpp"
#include "sim/adversary.hpp"

namespace lft::bench {

/// Prints aligned rows: header once, then one row per call.
class Table {
 public:
  explicit Table(std::vector<std::string> columns, int width = 14)
      : columns_(std::move(columns)), width_(width) {}

  void print_header() const {
    for (const auto& c : columns_) std::printf("%*s", width_, c.c_str());
    std::printf("\n");
    for (std::size_t i = 0; i < columns_.size(); ++i) {
      for (int j = 0; j < width_; ++j) std::printf("-");
    }
    std::printf("\n");
  }

  void cell(const std::string& value) const { std::printf("%*s", width_, value.c_str()); }
  void cell(std::int64_t value) const { std::printf("%*lld", width_, static_cast<long long>(value)); }
  void cell(double value) const { std::printf("%*.3f", width_, value); }
  void cell_sci(double value) const { std::printf("%*.2e", width_, value); }
  void end_row() const { std::printf("\n"); }

 private:
  std::vector<std::string> columns_;
  int width_;
};

inline void banner(const char* experiment, const char* claim) {
  std::printf("\n=== %s ===\n%s\n\n", experiment, claim);
}

inline std::vector<int> random_binary_inputs(NodeId n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<int> inputs(static_cast<std::size_t>(n));
  for (auto& b : inputs) b = static_cast<int>(rng.uniform(2));
  return inputs;
}

inline std::unique_ptr<sim::FaultInjector> random_crashes(NodeId n, std::int64_t t,
                                                           Round window, std::uint64_t seed) {
  if (t == 0) return nullptr;
  return sim::make_scheduled(sim::random_crash_schedule(n, t, 0, window, 0.0, seed));
}

}  // namespace lft::bench
