#!/usr/bin/env python3
"""Perf-regression gate for the engine hot path.

Compares measured send/deliver throughput against the checked-in baseline
(bench/hotpath_baseline.json) and fails when any benchmark's items_per_second
drops below its floor (baseline / factor).

Accepted results formats (auto-detected):
  * google-benchmark --benchmark_out JSON (object with a "benchmarks" list);
  * the engine_hotpath --json row array ([{"bench", "items_per_second",
    ...}, ...]).
With repetitions, aggregate rows are skipped / per-rep rows are reduced to
their median, so the gate sees one number per benchmark.

The baseline is {"factor": F, "benchmarks": {name -> items_per_second}}.

Usage: check_hotpath_regression.py RESULTS_JSON BASELINE_JSON [--factor F]
"""

import argparse
import json
import statistics
import sys


def load_measurements(path):
    """Returns {benchmark name -> median items/s}."""
    with open(path, encoding="utf-8") as f:
        results = json.load(f)

    samples = {}
    if isinstance(results, list):  # engine_hotpath --json row array
        for row in results:
            ips = row.get("items_per_second")
            if ips is not None:
                samples.setdefault(row["bench"], []).append(ips)
    else:  # google-benchmark --benchmark_out object
        for bench in results.get("benchmarks", []):
            # Skip aggregate rows (mean/median/stddev) if repetitions were used.
            if bench.get("run_type") == "aggregate":
                continue
            ips = bench.get("items_per_second")
            if ips is not None:
                samples.setdefault(bench["name"], []).append(ips)

    return {name: statistics.median(vals) for name, vals in samples.items()}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("results", help="results JSON (either accepted format)")
    parser.add_argument("baseline", help="baseline JSON")
    parser.add_argument("--factor", type=float, default=None,
                        help="fail when measured < baseline / factor "
                             "(default: the baseline's recorded factor)")
    args = parser.parse_args()

    measured = load_measurements(args.results)
    with open(args.baseline, encoding="utf-8") as f:
        baseline = json.load(f)
    factor = args.factor if args.factor is not None else baseline["factor"]

    failures = []
    checked = 0
    for name, floor_source in sorted(baseline["benchmarks"].items()):
        if name not in measured:
            print(f"note: baseline entry {name!r} not in results, skipped")
            continue
        checked += 1
        floor = floor_source / factor
        got = measured[name]
        ratio = got / floor_source
        status = "OK " if got >= floor else "FAIL"
        print(f"{status} {name}: {got:,.0f} items/s "
              f"(baseline {floor_source:,.0f}, ratio {ratio:.2f}, floor {floor:,.0f})")
        if got < floor:
            failures.append(name)

    if checked == 0:
        print("error: no baseline benchmarks matched the results", file=sys.stderr)
        return 2
    if failures:
        print(f"perf regression: {', '.join(failures)} dropped below "
              f"baseline / {factor:.2f}", file=sys.stderr)
        return 1
    print(f"perf gate passed ({checked} benchmarks within {factor:.2f}x of baseline)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
