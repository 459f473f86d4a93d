#!/usr/bin/env python3
"""Runs each workload repeatedly, each run with another seed, and prints each
end-to-end metric's median and quartile spread against its bound in
BENCHMARK.json.

    python3 e2ebench/steady.py [--workloads a,b] [--runs 10] [--first-seed 1]
                               [--save set1.json] [--baseline set0.json]

The spread is (q3 - q1) / median with the quartiles of
statistics.quantiles(values, n=4). A metric is steady when its spread is
below its bound ("TOO WIDE" fails the set) and well steady when below a
third of it ("ok"; "wide" in between). --save writes the medians and
failure shares of this set; --baseline compares this set with a saved one:
no median may be worse than the saved one by more than its bound, and the
share of failed operations must be the same. The exit code is 1 when any
run fails or any check does not hold.
"""
import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_once(workload, seed, seconds):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
    if proc.returncode != 0:
        return None
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main() -> int:
    sys.stdout.reconfigure(line_buffering=True)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads", default=",".join(names))
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=spec["run_seconds"])
    ap.add_argument("--save")
    ap.add_argument("--baseline")
    ap.add_argument("--verbose", action="store_true", help="print every run's value")
    args = ap.parse_args()

    metrics = {m["name"]: m for m in spec["end_to_end"]}
    baseline = json.loads(Path(args.baseline).read_text()) if args.baseline else {}
    saved = {}
    ok = True
    for workload in args.workloads.split(","):
        values = {name: [] for name in metrics}
        fail_shares = set()
        for i in range(args.runs):
            seed = args.first_seed + i
            r = run_once(workload, seed, args.seconds)
            if r is None or not r["correct"]:
                print(f"{workload} seed {seed}: run failed or incorrect")
                ok = False
                continue
            fail_shares.add(r["failed"] / r["attempted"])
            for name in metrics:
                values[name].append(r["metrics"][name]["value"])
        if len(fail_shares) > 1:
            print(f"{workload}: the share of failed operations differs between runs")
            ok = False
        print(f"\n{workload}: {args.runs} runs, seeds {args.first_seed}.."
              f"{args.first_seed + args.runs - 1}")
        print(f"  {'metric':22} {'median':>12} {'q1':>12} {'q3':>12} "
              f"{'spread':>8} {'bound':>6}  verdict")
        saved[workload] = {"fail_share": sorted(fail_shares), "medians": {}}
        for name, m in metrics.items():
            v = values[name]
            if len(v) < 2:
                continue
            q1, med, q3 = statistics.quantiles(v, n=4)
            spread = (q3 - q1) / med if med else float("inf")
            saved[workload]["medians"][name] = med
            verdict = "ok" if spread <= m["bound"] / 3 else "wide"
            if spread > m["bound"]:
                verdict = "TOO WIDE"
                ok = False
            base = baseline.get(workload, {}).get("medians", {}).get(name)
            if base is not None:
                worse = (med - base) / base if m["better"] == "lower" else (base - med) / base
                verdict += f", {worse:+.1%} vs baseline"
                if worse > m["bound"]:
                    verdict += " REGRESSED"
                    ok = False
            print(f"  {name:22} {med:12.4f} {q1:12.4f} {q3:12.4f} "
                  f"{spread:8.1%} {m['bound']:6.2f}  {verdict}")
            if args.verbose:
                print("      runs: " + " ".join(f"{x:.4g}" for x in v))
        base_share = baseline.get(workload, {}).get("fail_share")
        if base_share is not None and base_share != sorted(fail_shares):
            print(f"  failed-operation share differs from the baseline")
            ok = False
    if args.save:
        Path(args.save).write_text(json.dumps(saved, indent=1) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
