// The paper-claims ledger's data model and bound check (the harness itself,
// with every table's sweep, is bench/paper_claims.cpp). A table is data: its
// id, claim, printed columns, the sweep that produces its rows, and the
// bounds its "expected shape" sentence states. check() turns a table's rows
// into a verdict; the harness exits nonzero when any verdict fails.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <limits>
#include <string>
#include <utility>
#include <variant>
#include <vector>

#include "common/types.hpp"

namespace lft::bench {

/// A double printed in scientific notation.
struct Sci {
  double value;
};

/// One printed cell.
using Cell = std::variant<std::int64_t, double, std::string, Sci>;

/// One printed row plus its JSON record (record_table_row's schema).
struct Row {
  /// One cell per column except the last; the last column prints `ok`.
  std::vector<Cell> cells;
  bool ok = false;
  NodeId n = 0;
  std::int64_t t = 0;
  std::int64_t rounds = 0;
  std::int64_t messages = 0;
  std::int64_t bits = 0;
  double wall_ms = 0;
  /// Printed after the table when non-empty.
  std::string note{};
};

/// String cells equal to these (column, value) pairs pick a bound's rows;
/// empty picks every row.
using Selector = std::vector<std::pair<std::string, std::string>>;

enum class BoundKind {
  kFlat,           // max/min of the ratio over the rows <= limit + margin
  kAtLeast,        // every ratio >= limit
  kAtMost,         // every ratio <= limit
  kBaselineLoses,  // at the largest n both row sets share, baseline > rows
};

/// One checked bound. The ratio is `value / per` (or `value` alone when
/// `per` is empty), read from the named columns of each selected row.
struct Bound {
  BoundKind kind = BoundKind::kFlat;
  std::string value{};
  std::string per{};
  Selector rows{};
  /// kFlat: the spread the sweep measured when the bound was written;
  /// kAtLeast / kAtMost: the limit itself.
  double limit = 0;
  /// kFlat only: the allowed spread is limit + margin.
  double margin = 0;
  /// kBaselineLoses only: the baseline's rows.
  Selector baseline{};
};

/// One sweep point: the size it runs at and the execution(s) that produce
/// its rows. The harness starts the largest points first. A point marked
/// `parallel_stepper` runs on the harness's own thread beside the fleet, so
/// its engine steps on the parallel stepper instead of serially on a fleet
/// worker: for an execution that would outlast everything else serially.
struct Point {
  NodeId n = 0;
  std::function<std::vector<Row>()> run;
  bool parallel_stepper = false;
};

struct ClaimTable {
  std::string id;
  std::string title;
  std::string claim;
  /// Printed columns; the last is the ok column.
  std::vector<std::string> columns;
  std::vector<Point> sweep;
  /// The expected-shape sentence (printed after the rows) ...
  std::string shape;
  /// ... and what of it is checked. Every table has at least one bound.
  std::vector<Bound> bounds;
};

struct Verdict {
  bool pass = true;
  /// One line per failed row and per bound, in table order.
  std::vector<std::string> lines;
};

namespace claims_detail {

inline double numeric(const Cell& cell) {
  if (const auto* v = std::get_if<std::int64_t>(&cell)) return static_cast<double>(*v);
  if (const auto* v = std::get_if<double>(&cell)) return *v;
  if (const auto* v = std::get_if<Sci>(&cell)) return v->value;
  return std::numeric_limits<double>::quiet_NaN();
}

inline std::string describe(const Selector& selector) {
  std::string out;
  for (const auto& [key, value] : selector) out += " [" + key + "=" + value + "]";
  return out;
}

inline std::string format(const char* fmt, double a, double b) {
  char buf[96];
  std::snprintf(buf, sizeof buf, fmt, a, b);
  return buf;
}

}  // namespace claims_detail

/// Checks every row's ok cell and every bound of `table` against `rows`.
/// A bound that names an unknown or non-numeric column, or selects too few
/// rows to say anything (no rows; one row for kFlat; no shared n for
/// kBaselineLoses), fails.
inline Verdict check(const ClaimTable& table, const std::vector<Row>& rows) {
  using claims_detail::numeric;
  Verdict verdict;
  const auto column = [&](const std::string& name) -> std::size_t {
    const auto it = std::find(table.columns.begin(), table.columns.end(), name);
    return static_cast<std::size_t>(it - table.columns.begin());
  };
  const auto cell = [&](const Row& row, const std::string& name) -> const Cell* {
    const std::size_t i = column(name);
    return i < row.cells.size() ? &row.cells[i] : nullptr;
  };
  const auto selected = [&](const Row& row, const Selector& selector) {
    return std::all_of(selector.begin(), selector.end(), [&](const auto& kv) {
      const Cell* c = cell(row, kv.first);
      const auto* text = c == nullptr ? nullptr : std::get_if<std::string>(c);
      return text != nullptr && *text == kv.second;
    });
  };
  const auto ratio = [&](const Row& row, const Bound& b) {
    const Cell* v = cell(row, b.value);
    double r = v == nullptr ? std::numeric_limits<double>::quiet_NaN() : numeric(*v);
    if (!b.per.empty()) {
      const Cell* p = cell(row, b.per);
      r /= p == nullptr ? std::numeric_limits<double>::quiet_NaN() : numeric(*p);
    }
    return r;
  };
  const auto report = [&](bool pass, std::string line) {
    verdict.pass = verdict.pass && pass;
    verdict.lines.push_back((pass ? "  ok    " : "  FAIL  ") + line);
  };

  for (const Row& row : rows) {
    if (!row.ok) {
      report(false, table.columns.back() + " is NO at n=" + std::to_string(row.n) +
                        " t=" + std::to_string(row.t));
    }
  }
  for (const Bound& b : table.bounds) {
    const std::string what =
        (b.per.empty() ? b.value : b.value + "/" + b.per) + claims_detail::describe(b.rows);
    std::vector<double> ratios;
    for (const Row& row : rows) {
      if (selected(row, b.rows)) ratios.push_back(ratio(row, b));
    }
    const bool numeric_ok = std::none_of(ratios.begin(), ratios.end(),
                                         [](double r) { return std::isnan(r); });
    if (!numeric_ok || ratios.empty()) {
      report(false, what + ": no numeric rows to check");
      continue;
    }
    const auto [lo, hi] = std::minmax_element(ratios.begin(), ratios.end());
    switch (b.kind) {
      case BoundKind::kFlat: {
        const double allowed = b.limit + b.margin;
        const double spread = *hi / *lo;
        const bool pass = ratios.size() >= 2 && *lo > 0 && spread <= allowed;
        report(pass, what + " flat: hi/lo " +
                         claims_detail::format("%.3f <= %.3f", spread, allowed) +
                         claims_detail::format(" (measured %.3f + margin %.3f)", b.limit,
                                               b.margin));
        break;
      }
      case BoundKind::kAtLeast:
        report(*lo >= b.limit,
               what + claims_detail::format(" >= %g: min %.3f", b.limit, *lo));
        break;
      case BoundKind::kAtMost:
        report(*hi <= b.limit,
               what + claims_detail::format(" <= %g: max %.3f", b.limit, *hi));
        break;
      case BoundKind::kBaselineLoses: {
        // The largest n both row sets share, and each side's ratio there.
        const std::string line =
            "baseline" + claims_detail::describe(b.baseline) + " loses on " + what;
        double best_n = -1, mine = 0, theirs = 0;
        for (const Row& a : rows) {
          if (!selected(a, b.rows)) continue;
          for (const Row& z : rows) {
            if (selected(z, b.baseline) && z.n == a.n && a.n > best_n) {
              best_n = a.n;
              mine = ratio(a, b);
              theirs = ratio(z, b);
            }
          }
        }
        if (best_n < 0) {
          report(false, line + ": no shared n");
          break;
        }
        report(theirs > mine, line + " at n=" + std::to_string(static_cast<NodeId>(best_n)) +
                                  claims_detail::format(": %.6g vs %.6g", theirs, mine));
        break;
      }
    }
  }
  return verdict;
}

}  // namespace lft::bench
