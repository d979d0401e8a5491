// Machine-readable bench output: each table row the bench prints is also
// recorded as a flat JSON object, and `--json=PATH` writes the rows as a
// JSON array so CI can archive the perf trajectory (BENCH_*.json artifacts).
// No dependencies — values are integers, doubles, or plain strings; the
// scenario runner reuses this without linking Google Benchmark (the
// benchmark-aware table_main lives in table_main.hpp).
#pragma once

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>
#include <utility>
#include <variant>
#include <vector>

#include "common/types.hpp"

namespace lft::bench {

/// Collects rows of key/value fields and serializes them as a JSON array of
/// flat objects.
class JsonRows {
 public:
  void begin_row() { rows_.emplace_back(); }
  void field(const std::string& key, std::int64_t v) { rows_.back().emplace_back(key, v); }
  void field(const std::string& key, double v) { rows_.back().emplace_back(key, v); }
  void field(const std::string& key, const std::string& v) {
    rows_.back().emplace_back(key, v);
  }

  /// Writes the collected rows to `path`; returns false on IO failure.
  [[nodiscard]] bool write_file(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    std::fprintf(f, "[\n");
    for (std::size_t r = 0; r < rows_.size(); ++r) {
      std::fprintf(f, "  {");
      for (std::size_t i = 0; i < rows_[r].size(); ++i) {
        const auto& [key, value] = rows_[r][i];
        std::fprintf(f, "%s\"%s\": ", i == 0 ? "" : ", ", escaped(key).c_str());
        if (std::holds_alternative<std::int64_t>(value)) {
          std::fprintf(f, "%lld", static_cast<long long>(std::get<std::int64_t>(value)));
        } else if (std::holds_alternative<double>(value)) {
          std::fprintf(f, "%.6g", std::get<double>(value));
        } else {
          std::fprintf(f, "\"%s\"", escaped(std::get<std::string>(value)).c_str());
        }
      }
      std::fprintf(f, "}%s\n", r + 1 < rows_.size() ? "," : "");
    }
    std::fprintf(f, "]\n");
    return std::fclose(f) == 0;
  }

 private:
  static std::string escaped(const std::string& s) {
    std::string out;
    out.reserve(s.size());
    for (const char c : s) {
      if (c == '"' || c == '\\') out.push_back('\\');
      out.push_back(c);
    }
    return out;
  }

  using Value = std::variant<std::int64_t, double, std::string>;
  std::vector<std::vector<std::pair<std::string, Value>>> rows_;
};

/// Splits a comma-separated CLI value into its non-empty parts (shared by
/// the lft_scenarios --run= and lft_fleet --scenario=/--sizes= parsers).
inline std::vector<std::string> split_csv(const std::string& s) {
  std::vector<std::string> parts;
  std::size_t pos = 0;
  while (pos <= s.size()) {
    const std::size_t comma = s.find(',', pos);
    const std::string part =
        s.substr(pos, comma == std::string::npos ? std::string::npos : comma - pos);
    if (!part.empty()) parts.push_back(part);
    if (comma == std::string::npos) break;
    pos = comma + 1;
  }
  return parts;
}

/// Returns the PATH of a `--json=PATH` argument, or "" if absent. Leaves
/// argv untouched (google-benchmark ignores flags it does not recognize
/// when ReportUnrecognizedArguments is not called).
inline std::string json_flag(int argc, char** argv) {
  const std::string prefix = "--json=";
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind(prefix, 0) == 0) return arg.substr(prefix.size());
  }
  return {};
}

/// Appends one table row: any leading label fields, then the common
/// (n, t, rounds, messages, bits, wall_ms, ok) columns every BENCH_*.json
/// artifact shares — keeping the paper-claims and scenario tables' schemas
/// from diverging. No-op when json is null (no --json flag).
inline void record_table_row(JsonRows* json,
                             const std::vector<std::pair<std::string, std::string>>& labels,
                             NodeId n, std::int64_t t, std::int64_t rounds,
                             std::int64_t messages, std::int64_t bits, double wall_ms,
                             bool ok) {
  if (json == nullptr) return;
  json->begin_row();
  for (const auto& [key, value] : labels) json->field(key, value);
  json->field("n", static_cast<std::int64_t>(n));
  json->field("t", t);
  json->field("rounds", rounds);
  json->field("messages", messages);
  json->field("bits", bits);
  json->field("wall_ms", wall_ms);
  json->field("ok", std::string(ok ? "yes" : "NO"));
}

/// Wall-clock stopwatch for per-row timings.
class WallTimer {
 public:
  WallTimer() : start_(std::chrono::steady_clock::now()) {}
  [[nodiscard]] double ms() const {
    return std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() -
                                                     start_)
        .count();
  }

 private:
  std::chrono::steady_clock::time_point start_;
};

}  // namespace lft::bench
