#!/usr/bin/env python3
"""Runs the benchmark over several seeds and reports each metric's spread.

    python3 perfbench/spread.py [--workloads a,b] [--seeds 1-10]
                                [--seconds S] [--trace 0|1] [--json FILE]

Run from the repository root. For every workload and metric it prints the
median, the first and third quartiles (Python's statistics.quantiles with
n=4) and the spread, (Q3 - Q1) / median, next to the metric's bound from
BENCHMARK.json. Exits non-zero if any run fails or any bounded metric
spreads wider than its bound.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError("%s seed %d exited %d: %s" % (
            workload, seed, proc.returncode, proc.stderr[-2000:]))
    return json.loads(lines[-1])


def main():
    spec = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))
    ap = argparse.ArgumentParser()
    ap.add_argument("--workloads",
                    default=",".join(w["name"] for w in spec["workloads"]))
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"])
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--json", help="also write the raw values here")
    args = ap.parse_args()

    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    seeds = parse_seeds(args.seeds)
    raw = {}
    ok = True
    for workload in args.workloads.split(","):
        values = {}
        for seed in seeds:
            result = run_once(workload, seed, args.seconds, args.trace)
            if not result["correct"]:
                ok = False
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
        raw[workload] = values
        print("%s (%d seeds)" % (workload, len(seeds)))
        for name, vals in values.items():
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med if med else 0.0
            bound = bounds.get(name) if not args.trace else None
            flag = ""
            if bound is not None and spread > bound:
                flag = "  OVER BOUND"
                ok = False
            print("  %-34s median %-14.6g q1 %-14.6g q3 %-14.6g spread %.4f%s%s"
                  % (name, med, q1, q3, spread,
                     "" if bound is None else " (bound %g)" % bound, flag))
        sys.stdout.flush()
    if args.json:
        with open(args.json, "w") as f:
            json.dump(raw, f, indent=1)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
