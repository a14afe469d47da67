#!/usr/bin/env python3
"""Self-test of the benchmark itself.

    python3 perfbench/selftest.py [--seconds S] [--workloads a,b]

Run from the repository root. For every workload in BENCHMARK.json it runs
the benchmark twice untraced and twice traced at a short length, with the
same seed, and checks that

  - every metric BENCHMARK.json names is printed, with its unit, and no
    other metric is;
  - dyn_memops_after, colors_needed and every count-type layer metric
    repeat exactly, and so does the input digest;
  - no job failed: `failed` is 0, ok_ratio is 1 and `correct` is true.

It also checks that the benchmark refuses to run when an SRP_* knob that
changes the measurement is set, and that it exits non-zero without a
result in a directory holding only BENCHMARK.json and the benchmark's own
files. Exits 0 when every check passes.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = os.path.join(HERE, "run.py")

failures = []


def check(cond, msg):
    if not cond:
        failures.append(msg)
        print("FAIL: " + msg)


def run(workload, seconds, trace, seed=7, env=None, cwd=None):
    cmd = [sys.executable, RUN, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    return subprocess.run(cmd, capture_output=True, text=True, env=env,
                          cwd=cwd or os.getcwd())


def parse(proc, what):
    lines = proc.stdout.strip().splitlines()
    check(proc.returncode == 0, "%s exited %d: %s" % (
        what, proc.returncode, proc.stderr[-1000:]))
    if len(lines) < 2:
        check(False, "%s printed no result" % what)
        return None, None
    return json.loads(lines[-2])["context"], json.loads(lines[-1])


def main():
    spec = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))
    ap = argparse.ArgumentParser()
    ap.add_argument("--seconds", type=float, default=1)
    ap.add_argument("--workloads",
                    default=",".join(w["name"] for w in spec["workloads"]))
    args = ap.parse_args()

    sets = {0: spec["end_to_end"], 1: spec["per_layer"]}
    for workload in args.workloads.split(","):
        for trace, wanted in sets.items():
            units = {m["name"]: m["unit"] for m in wanted}
            runs = []
            for attempt in (1, 2):
                what = "%s trace=%d run %d" % (workload, trace, attempt)
                ctx, res = parse(run(workload, args.seconds, trace), what)
                if res is None:
                    continue
                runs.append((ctx, res))
                got = {k: v["unit"] for k, v in res["metrics"].items()}
                check(got == units, "%s: metrics/units differ from "
                      "BENCHMARK.json: %s" % (what, sorted(
                          set(got.items()) ^ set(units.items()))))
                check(res["correct"] is True and res["failed"] == 0
                      and res["attempted"] >= 1,
                      "%s: correct=%s failed=%s attempted=%s" % (
                          what, res["correct"], res["failed"],
                          res["attempted"]))
                if trace == 0:
                    check(res["metrics"]["ok_ratio"]["value"] == 1,
                          "%s: ok_ratio is not 1" % what)
            if len(runs) != 2:
                continue
            (c1, r1), (c2, r2) = runs
            check(c1["input_digest"] == c2["input_digest"],
                  "%s trace=%d: input digest differs" % (workload, trace))
            for name, unit in units.items():
                if unit == "count" and name in r1["metrics"] \
                        and name in r2["metrics"]:
                    a = r1["metrics"][name]["value"]
                    b = r2["metrics"][name]["value"]
                    check(a == b, "%s trace=%d: %s differs: %s vs %s" % (
                        workload, trace, name, a, b))
        print("ok: %s" % workload)
        sys.stdout.flush()

    # Hermetic: a measurement-changing knob makes the run refuse.
    env = dict(os.environ, SRP_INTERP="walk")
    proc = run(spec["workloads"][0]["name"], 1, 0, env=env)
    check(proc.returncode != 0 and "correct" not in proc.stdout,
          "ran with SRP_INTERP set")

    # Without the repository's sources the benchmark fails cleanly.
    bare = os.path.join(os.environ.get("CARGO_TARGET_DIR") or ".bench_build",
                        "selftest-bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    for path in spec["paths"]:
        shutil.copytree(os.path.join(ROOT, path), os.path.join(bare, path))
    proc = subprocess.run(spec["command"] + [
        "--workload", spec["workloads"][0]["name"], "--seed", "1",
        "--seconds", "1", "--trace", "0"], cwd=bare, capture_output=True,
        text=True, env=dict(os.environ, CARGO_TARGET_DIR=".bench_build"))
    check(proc.returncode != 0 and "correct" not in proc.stdout,
          "bare directory: exit %d, stdout %r" % (proc.returncode,
                                                 proc.stdout[-200:]))
    shutil.rmtree(bare, ignore_errors=True)

    print("selftest: %s" % ("PASS" if not failures else
                            "%d failure(s)" % len(failures)))
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
