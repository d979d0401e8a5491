// The paper-claims harness's bound check (bench/paper_claims.hpp) on
// synthetic series: a flat ratio passes, one that grows by a log factor
// fails, and so do a NO row, a series under its floor, a baseline that
// wins, and a bound naming a column the table does not print.
#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

#include "paper_claims.hpp"

namespace lft::bench {
namespace {

ClaimTable series_table(std::vector<Bound> bounds) {
  return ClaimTable{
      "T", "synthetic", "claim", {"algo", "n", "cost", "ok"}, {}, "", std::move(bounds)};
}

Row series_row(const std::string& algo, NodeId n, double cost, bool ok = true) {
  Row row;
  row.cells = {algo, std::int64_t{n}, cost};
  row.ok = ok;
  row.n = n;
  return row;
}

// cost = n * f(n) at n = 512 .. 4096 for the "paper" algorithm.
template <class F>
std::vector<Row> series(F f) {
  std::vector<Row> rows;
  for (NodeId n : {512, 1024, 2048, 4096}) rows.push_back(series_row("paper", n, n * f(n)));
  return rows;
}

const Bound kFlatCostPerN{.value = "cost", .per = "n", .limit = 1.10, .margin = 0.05};

TEST(PaperClaims, FlatSeriesPasses) {
  // Within the recorded 1.10 spread: 3.0 .. 3.3.
  const auto rows = series([](NodeId n) { return 3.0 + 0.1 * std::log2(n / 512.0); });
  const Verdict verdict = check(series_table({kFlatCostPerN}), rows);
  EXPECT_TRUE(verdict.pass);
  ASSERT_EQ(verdict.lines.size(), 1U);
  EXPECT_EQ(verdict.lines[0].rfind("  ok", 0), 0U) << verdict.lines[0];
}

TEST(PaperClaims, LogFactorGrowthFails) {
  // cost = n lg n against an O(n) bound: the ratio grows 9 -> 12 (1.33x).
  const auto rows = series([](NodeId n) { return std::log2(static_cast<double>(n)); });
  const Verdict verdict = check(series_table({kFlatCostPerN}), rows);
  EXPECT_FALSE(verdict.pass);
  ASSERT_EQ(verdict.lines.size(), 1U);
  EXPECT_EQ(verdict.lines[0].rfind("  FAIL", 0), 0U) << verdict.lines[0];
}

TEST(PaperClaims, NoRowFails) {
  auto rows = series([](NodeId) { return 3.0; });
  rows[2].ok = false;
  const Verdict verdict = check(series_table({kFlatCostPerN}), rows);
  EXPECT_FALSE(verdict.pass);
  EXPECT_NE(verdict.lines[0].find("ok is NO at n=2048"), std::string::npos) << verdict.lines[0];
}

TEST(PaperClaims, FloorAndCeiling) {
  const Bound floor{.kind = BoundKind::kAtLeast, .value = "cost", .per = "n", .limit = 0.5};
  const Bound ceiling{.kind = BoundKind::kAtMost, .value = "cost", .per = "n", .limit = 1};
  EXPECT_TRUE(check(series_table({floor, ceiling}), series([](NodeId) { return 0.5; })).pass);
  auto under = series([](NodeId) { return 0.6; });
  under[3] = series_row("paper", 4096, 0.4 * 4096);
  EXPECT_FALSE(check(series_table({floor}), under).pass);
  EXPECT_FALSE(check(series_table({ceiling}), series([](NodeId) { return 1.01; })).pass);
}

TEST(PaperClaims, BaselineMustLoseAtTheLargestSharedSize) {
  const Bound loses{.kind = BoundKind::kBaselineLoses,
                    .value = "cost",
                    .rows = {{"algo", "paper"}},
                    .baseline = {{"algo", "baseline"}}};
  auto rows = series([](NodeId) { return 3.0; });
  // The baseline wins at 512 and loses at 2048, its largest size: passes.
  rows.push_back(series_row("baseline", 512, 1.0 * 512));
  rows.push_back(series_row("baseline", 2048, 5.0 * 2048));
  EXPECT_TRUE(check(series_table({loses}), rows).pass);
  rows.back() = series_row("baseline", 2048, 2.0 * 2048);
  EXPECT_FALSE(check(series_table({loses}), rows).pass);
  // No size in common: nothing is shown, so the bound fails.
  rows.pop_back();
  rows.back() = series_row("baseline", 300, 1.0);
  EXPECT_FALSE(check(series_table({loses}), rows).pass);
}

TEST(PaperClaims, BoundsThatCannotBeCheckedFail) {
  const auto rows = series([](NodeId) { return 3.0; });
  // A column the table does not print.
  EXPECT_FALSE(check(series_table({{.value = "bits", .limit = 1.1}}), rows).pass);
  // A selector that matches nothing.
  EXPECT_FALSE(
      check(series_table({{.value = "cost", .rows = {{"algo", "x"}}, .limit = 1.1}}), rows).pass);
  // A flat bound over one row says nothing.
  EXPECT_FALSE(check(series_table({kFlatCostPerN}), {rows[0]}).pass);
  // A non-numeric column.
  EXPECT_FALSE(check(series_table({{.value = "algo", .limit = 1.1}}), rows).pass);
}

}  // namespace
}  // namespace lft::bench
