#!/usr/bin/env python3
"""Build and run one perfbench workload from the root of a source checkout.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
                             [--break-check]

Builds perfbench/ (a standalone CMake package compiling ../src) into
$CARGO_TARGET_DIR (default .bench_build) when needed, runs the binary, and
prints its result as the last stdout line: one JSON object with `correct`,
`attempted`, `failed` and `metrics`. With --trace 0 the metrics are the
end-to-end metrics BENCHMARK.json lists; with --trace 1 its per-layer
metrics, where a layer the workload does not exercise reads 0. Exits
nonzero, without a result line, when the sources are missing or the build
fails, and with status 1 when any correctness check fails.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys

ROOT = os.getcwd()
BENCH_DIR = os.path.join(ROOT, "perfbench")
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 850


def fail(message, code=2):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def parse_args():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", choices=["0", "1"], required=True)
    parser.add_argument("--break-check", action="store_true",
                        help="corrupt one expected value; the run must then fail")
    return parser.parse_args()


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(target):
        target = os.path.join(ROOT, target)
    return os.path.join(target, "perfbench")


def build(out_dir):
    """Configures once, then lets the build tool decide what is stale."""
    if not os.path.isfile(os.path.join(ROOT, "src", "lft.hpp")):
        fail("no library sources under src/; run from the root of a source checkout")
    if not os.path.isfile(os.path.join(out_dir, "CMakeCache.txt")):
        configure = ["cmake", "-S", BENCH_DIR, "-B", out_dir, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        run_build_step(configure)
    run_build_step(["cmake", "--build", out_dir, "--parallel", "4"])
    binary = os.path.join(out_dir, "perfbench")
    if not os.path.isfile(binary):
        fail("build produced no perfbench binary")
    return binary


def run_build_step(command):
    try:
        proc = subprocess.run(command, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                              timeout=BUILD_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        fail(f"build step timed out: {' '.join(command)}")
    sys.stderr.write(proc.stdout.decode(errors="replace"))
    if proc.returncode != 0:
        fail(f"build step failed: {' '.join(command)}")


def source_stamp():
    """The commit when the checkout is a git repository, plus a digest of
    the sources that were built (the checkout usually is not one)."""
    commit = "none"
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              timeout=10, check=False)
        if proc.returncode == 0:
            commit = proc.stdout.decode().strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    digest = hashlib.sha256()
    for base in ("src", "perfbench"):
        for folder, dirs, files in sorted(os.walk(os.path.join(ROOT, base))):
            dirs.sort()
            for name in sorted(files):
                path = os.path.join(folder, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as handle:
                    digest.update(handle.read())
    return commit, digest.hexdigest()[:16]


def shape_result(result, spec, trace):
    """Checks the binary's metrics against BENCHMARK.json and fills the
    per-layer metrics this workload does not exercise with 0."""
    listed = spec["per_layer"] if trace else spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in listed}
    metrics = result["metrics"]
    for name, entry in metrics.items():
        if name not in units:
            fail(f"perfbench reported metric {name!r}, which BENCHMARK.json does not list", 4)
        if entry["unit"] != units[name]:
            fail(f"metric {name!r} has unit {entry['unit']!r}, expected {units[name]!r}", 4)
    shaped = {}
    for name, unit in units.items():
        if name in metrics:
            shaped[name] = metrics[name]
        elif trace:
            shaped[name] = {"value": 0, "unit": unit}
        else:
            fail(f"perfbench did not report end-to-end metric {name!r}", 4)
    return {"correct": bool(result["correct"]), "attempted": int(result["attempted"]),
            "failed": int(result["failed"]), "metrics": shaped}


def main():
    args = parse_args()
    binary = build(build_dir())
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        fail(f"unknown workload {args.workload!r}")
    commit, digest = source_stamp()
    print(f"perfbench source: commit={commit} sources_sha256={digest}", flush=True)

    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", repr(args.seconds), "--trace", args.trace]
    if args.break_check:
        command.append("--break-check")
    try:
        proc = subprocess.run(command, stdout=subprocess.PIPE, timeout=RUN_TIMEOUT_S,
                              check=False)
    except subprocess.TimeoutExpired:
        fail(f"perfbench binary exceeded {RUN_TIMEOUT_S} s", 3)
    lines = proc.stdout.decode(errors="replace").splitlines()
    if proc.returncode not in (0, 1) or not lines:
        sys.stdout.write("\n".join(lines) + "\n")
        fail(f"perfbench binary exited with status {proc.returncode}", 3)
    for line in lines[:-1]:
        print(line)
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        print(lines[-1])
        fail("perfbench binary printed no result line", 3)
    shaped = shape_result(result, spec, args.trace == "1")
    print(json.dumps(shaped), flush=True)
    sys.exit(0 if shaped["correct"] and proc.returncode == 0 else 1)


if __name__ == "__main__":
    main()
