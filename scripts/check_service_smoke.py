#!/usr/bin/env python3
"""Gate + schema check for the lft_bench_client --json artifact.

Validates the single service row CI archives from the service-smoke step:
  * the full schema is present (bench, mode, backend, requests, clients,
    window, open_rate, slots, wall_ms, req_per_s, p50/p95/p99_ms, ok) with
    sane types;
  * ok == "yes" (the closed loop lost, duplicated, and reordered nothing);
  * the counters are consistent (requests/clients/slots positive, more
    consensus slots than requests is impossible under group commit).

With --baseline it additionally enforces the checked-in req/s floor
(bench/service_baseline.json): the row must meet every floor entry whose
backend/mode it matches.

With --append-history DIR the row is wrapped into a bench/history/ point
(NNNN-label.json, the schema scripts/bench_report.py renders) so service
throughput joins the perf-history dashboard.

With --server-stats BENCH_service_stats.json it additionally prints an
advisory report from the server's own telemetry snapshot (the --stats-json
artifact of lft_bench_client --server-stats): server-side request-latency
p50/p99, pump-phase p99s, and the epoll wait-batch profile. Report-only —
server-side latency has no hard gate; the gates stay on the client-measured
closed-loop numbers above.

Usage: check_service_smoke.py BENCH_service.json
           [--baseline bench/service_baseline.json]
           [--server-stats BENCH_service_stats.json]
           [--append-history DIR --label NAME --commit HASH --machine DESC]
"""

import argparse
import datetime
import json
import os
import sys

REQUIRED_FIELDS = {
    "bench": str,
    "mode": str,
    "backend": str,
    "requests": int,
    "clients": int,
    "window": int,
    "open_rate": int,
    "slots": int,
    "wall_ms": (int, float),
    "req_per_s": (int, float),
    "p50_ms": (int, float),
    "p95_ms": (int, float),
    "p99_ms": (int, float),
    "ok": str,
}


def check_schema(row, path):
    for field, types in REQUIRED_FIELDS.items():
        if field not in row:
            raise SystemExit(f"FAIL: row lacks '{field}'")
        if not isinstance(row[field], types):
            raise SystemExit(
                f"FAIL: field '{field}' has type {type(row[field]).__name__}")

    if row["bench"] != "service_closed_loop":
        raise SystemExit(f"FAIL: bench={row['bench']}, expected service_closed_loop")
    if row["mode"] not in ("closed", "open"):
        raise SystemExit(f"FAIL: mode={row['mode']}")
    if row["ok"] != "yes":
        raise SystemExit(f"FAIL: the load loop reported ok={row['ok']}")
    for positive in ("requests", "clients", "slots"):
        if row[positive] <= 0:
            raise SystemExit(f"FAIL: {positive}={row[positive]}")
    if row["mode"] == "closed" and row["window"] <= 0:
        raise SystemExit(f"FAIL: closed loop with window={row['window']}")
    if row["mode"] == "open" and row["open_rate"] <= 0:
        raise SystemExit(f"FAIL: open loop with open_rate={row['open_rate']}")
    if row["slots"] > row["requests"]:
        raise SystemExit(
            f"FAIL: {row['slots']} slots for {row['requests']} requests — "
            "group commit must batch at least one command per slot")
    if not row["p50_ms"] <= row["p95_ms"] <= row["p99_ms"]:
        raise SystemExit(
            f"FAIL: percentiles not monotonic: p50 {row['p50_ms']} "
            f"p95 {row['p95_ms']} p99 {row['p99_ms']}")


def check_floor(row, baseline_path):
    with open(baseline_path, encoding="utf-8") as f:
        baseline = json.load(f)
    matched = False
    for floor in baseline.get("floors", []):
        if floor.get("backend") != row["backend"]:
            continue
        if floor.get("mode", "closed") != row["mode"]:
            continue
        matched = True
        minimum = floor["min_req_per_s"]
        if row["req_per_s"] < minimum:
            raise SystemExit(
                f"FAIL: {row['req_per_s']:.0f} req/s on {row['backend']} "
                f"({row['mode']} loop) is below the checked-in floor "
                f"of {minimum} req/s ({baseline_path})")
        print(f"floor: {row['req_per_s']:.0f} req/s >= {minimum} "
              f"({row['backend']}, {row['mode']} loop)")
    if not matched:
        print(f"floor: no entry in {baseline_path} matches backend="
              f"{row['backend']} mode={row['mode']}; nothing gated")


def report_server_stats(path):
    """Advisory print of the server-side telemetry snapshot (never fails)."""
    try:
        with open(path, encoding="utf-8") as f:
            rows = json.load(f)
    except (OSError, ValueError) as error:
        print(f"server stats: unreadable ({error}) — advisory only, continuing")
        return
    by_name = {row.get("metric"): row for row in rows if isinstance(row, dict)}

    def ms(metric, field):
        row = by_name.get(metric)
        if row is None or field not in row:
            return None
        return row[field] / 1e6

    latency_p50 = ms("lft_service_request_ns", "p50")
    latency_p99 = ms("lft_service_request_ns", "p99")
    if latency_p50 is None:
        print(f"server stats: no lft_service_request_ns row in {path}")
        return
    print(f"server stats (advisory): request latency p50={latency_p50:.3f}ms "
          f"p99={latency_p99:.3f}ms "
          f"({by_name['lft_service_request_ns'].get('count', '?')} samples)")
    phases = ", ".join(
        f"{phase}={ms(f'lft_service_pump_{phase}_ns', 'p99'):.3f}ms"
        for phase in ("enqueue", "step", "retire", "flush")
        if ms(f"lft_service_pump_{phase}_ns", "p99") is not None)
    if phases:
        print(f"server stats (advisory): pump phase p99 {phases}")
    batch = by_name.get("lft_service_reactor_batch")
    if batch is not None:
        print(f"server stats (advisory): reactor batch p50={batch.get('p50', '?')} "
              f"max={batch.get('max', '?')} over {batch.get('count', '?')} wakes")


def append_history(row, directory, label, commit, machine):
    existing = [name for name in os.listdir(directory)
                if name.endswith(".json") and name[:4].isdigit()]
    next_seq = 1 + max((int(name[:4]) for name in existing), default=0)
    point = {
        "label": label,
        "date": datetime.date.today().isoformat(),
        "commit": commit,
        "machine": machine,
        "rows": [row],
    }
    path = os.path.join(directory, f"{next_seq:04d}-{label}.json")
    with open(path, "w", encoding="utf-8") as f:
        json.dump(point, f, indent=2)
        f.write("\n")
    print(f"history: appended {path}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("artifact", help="BENCH_service.json from lft_bench_client")
    parser.add_argument("--baseline", default=None,
                        help="service_baseline.json with req/s floor entries")
    parser.add_argument("--server-stats", default=None, metavar="STATS_JSON",
                        help="server telemetry snapshot (--stats-json artifact) "
                             "to report on; advisory only, never gates")
    parser.add_argument("--append-history", default=None, metavar="DIR",
                        help="wrap the row into a bench/history/ point")
    parser.add_argument("--label", default="service-smoke")
    parser.add_argument("--commit", default="?")
    parser.add_argument("--machine", default="?")
    args = parser.parse_args()

    with open(args.artifact, encoding="utf-8") as f:
        rows = json.load(f)
    if not isinstance(rows, list) or len(rows) != 1:
        raise SystemExit(f"FAIL: {args.artifact} must be a one-row JSON array")
    row = rows[0]

    check_schema(row, args.artifact)

    if args.baseline:
        check_floor(row, args.baseline)

    if args.server_stats:
        report_server_stats(args.server_stats)

    if args.append_history:
        append_history(row, args.append_history, args.label, args.commit,
                       args.machine)

    print(f"OK: {row['requests']} requests over {row['clients']} clients in "
          f"{row['slots']} slots, {row['req_per_s']:.0f} req/s on "
          f"{row['backend']} ({row['mode']} loop), "
          "schema valid")
    return 0


if __name__ == "__main__":
    sys.exit(main())
