#!/usr/bin/env python3
"""Builds the end-to-end benchmark from this checkout's sources and runs one
workload.

    python3 e2ebench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

The benchmark is a CMake package of its own (e2ebench/CMakeLists.txt) that
compiles the engine sources under src/. It is configured and built, in
Release mode, under .bench_build/e2ebench at the root of the checkout; the
first run builds, later runs only re-check the build. The database of a run
lives under .bench_build/e2ebench/work and is removed when the run ends.
A traced run (--trace 1) writes its spans and per-layer metrics to
.bench_build/e2ebench/traces/<workload>-seed<n>.json.

The last line of standard output is the run's JSON result. The exit code is
0 only when the benchmark ran to its end and printed that line.
"""
import argparse
import fcntl
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

WORKLOADS = ["scan-sharded", "batch-scan"]
HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "e2ebench"
# A run's set-ups, checks and layer probes take well under this many
# seconds beside the timed phase; a run that takes longer is hung.
RUN_ALLOWANCE_S = 150


def build() -> Path:
    """Configures (once) and builds the benchmark; returns the binary."""
    BUILD.mkdir(parents=True, exist_ok=True)
    jobs = str(min(4, os.cpu_count() or 1))
    with open(BUILD / ".lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not (BUILD / "CMakeCache.txt").exists():
            subprocess.run(
                ["cmake", "-S", str(HERE), "-B", str(BUILD),
                 "-DCMAKE_BUILD_TYPE=Release"],
                check=True, stdout=sys.stderr)
        subprocess.run(["cmake", "--build", str(BUILD), "-j", jobs],
                       check=True, stdout=sys.stderr)
    return BUILD / "e2ebench"


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=[0, 1])
    args = ap.parse_args()
    if args.seed < 0 or not 1 <= args.seconds <= 600:
        ap.error("--seed must be >= 0 and --seconds in [1, 600]")

    try:
        binary = build()
    except (subprocess.CalledProcessError, OSError) as e:
        print(f"run.py: build failed: {e}", file=sys.stderr)
        return 1

    work = BUILD / "work" / f"{args.workload}-{os.getpid()}"
    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work-dir", str(work)]
    if args.trace:
        traces = BUILD / "traces"
        traces.mkdir(parents=True, exist_ok=True)
        cmd += ["--trace-out", str(traces / f"{args.workload}-seed{args.seed}.json")]
    timeout = RUN_ALLOWANCE_S + args.seconds
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        print(f"run.py: {args.workload} exceeded {timeout} s", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
        ok = set(result) == {"correct", "attempted", "failed", "metrics"}
    except (IndexError, ValueError):
        ok = False
    if proc.returncode != 0 or not ok:
        sys.stderr.write(proc.stdout)
        print(f"run.py: {args.workload} ended with code {proc.returncode} "
              "and no result line", file=sys.stderr)
        return proc.returncode or 1
    sys.stdout.write(proc.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
