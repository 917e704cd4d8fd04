#!/usr/bin/env python3
"""Build perfbench from this checkout and run one workload.

Run from the root of a checkout:

    python3 perfbench/run.py --workload read-traverse --seed 1 --seconds 20 --trace 0

The first run configures and builds popsmr plus the benchmark binary under
$CARGO_TARGET_DIR (default .bench_build), later runs only re-check the
build. Build output goes to stderr, so the last line of stdout is the
benchmark's JSON result. The exit code is the benchmark's: 0 only when
every correctness check passed. --seeded-wrong is the self-test mode that
plants one hidden write per window kind, so the checks must fail.
"""
import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("read-traverse", "write-stall", "wire-kv")
RUN_TIMEOUT_S = 170


def build_dir():
    return os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"),
                        "perfbench")


def build():
    out = build_dir()
    steps = []
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        steps.append(["cmake", "-S", HERE, "-B", out, *generator,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", out, "--target", "perfbench", "-j4"])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            return None
    return os.path.join(out, "perfbench")


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--seeded-wrong", action="store_true")
    a = p.parse_args()

    binary = build()
    if binary is None:
        print("perfbench: build failed", file=sys.stderr)
        return 2
    trace_dir = os.path.join(build_dir(), "traces")
    os.makedirs(trace_dir, exist_ok=True)
    cmd = [binary, "--workload", a.workload, "--seed", str(a.seed),
           "--seconds", str(a.seconds), "--trace", str(a.trace),
           "--out", trace_dir]
    if a.seeded_wrong:
        cmd.append("--seeded-wrong")
    sys.stdout.flush()
    try:
        return subprocess.run(cmd, cwd=ROOT, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print("perfbench: run timed out", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
