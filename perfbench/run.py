#!/usr/bin/env python3
"""Repository benchmark entry point.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. Builds the benchmark driver (perfbench/
CMakeLists.txt, which compiles the srp libraries from src/) in Release
mode under $CARGO_TARGET_DIR, default `.bench_build`, then runs one
workload and passes its output through: the last stdout line is the JSON
result. Exits non-zero, without a result, if the sources are missing or
the build fails; exits non-zero after the result if any output mismatched
its reference.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def build_dir():
    return os.environ.get("CARGO_TARGET_DIR") or ".bench_build"


def build(out):
    """Configures (once) and builds the driver; returns its path."""
    os.makedirs(out, exist_ok=True)
    log = open(os.path.join(out, "perfbench-build.log"), "ab")
    try:
        if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
            subprocess.run(["cmake", "-S", HERE, "-B", out,
                            "-DCMAKE_BUILD_TYPE=Release"],
                           stdout=log, stderr=log, check=True)
        jobs = str(min(4, os.cpu_count() or 1))
        subprocess.run(["cmake", "--build", out, "--target", "srp-perfbench",
                        "-j", jobs], stdout=log, stderr=log, check=True)
    except (subprocess.CalledProcessError, OSError) as e:
        sys.stderr.write("error: building the benchmark failed (%s); see %s\n"
                         % (e, log.name))
        sys.exit(3)
    finally:
        log.close()
    return os.path.join(out, "srp-perfbench")


def main():
    out = build_dir()
    if not os.path.isdir("src") or not os.path.isdir("workloads"):
        sys.stderr.write("error: run from the repository root; src/ and "
                         "workloads/ are needed\n")
        return 3
    exe = build(out)
    work = os.path.join(out, "perfbench")
    os.makedirs(work, exist_ok=True)
    cmd = [exe, "--work-dir", work, "--workloads-dir", "workloads"]
    return subprocess.run(cmd + sys.argv[1:]).returncode


if __name__ == "__main__":
    sys.exit(main())
