#!/usr/bin/env python3
"""Steadiness check: run workloads repeatedly and report each metric's spread.

Run from the root of a checkout:

    python3 perfbench/steady.py --workload write-stall --runs 5 --seed 1 --holdout-seed 99
    python3 perfbench/steady.py --runs 10 --seed 1 --distinct-seeds --seconds 20

For every end-to-end metric of every workload it prints the median, the
first and third quartiles (statistics.quantiles, n=4), the quartile spread
as a share of the median, and the largest relative deviation of any run
from the median; a metric whose largest deviation exceeds a tenth is
flagged and its per-run values are listed. Runs repeat --seed unless
--distinct-seeds gives run i the seed --seed + i. One more run with
--holdout-seed (default 999) is then compared with the medians. Exits
non-zero if any run fails its correctness checks.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
FLAG = 0.10


def run_once(workload, seed, seconds):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    p = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                       stderr=subprocess.DEVNULL, text=True)
    lines = p.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else {}
    return p.returncode, result


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", action="append",
                   help="repeatable; default: every workload in BENCHMARK.json")
    p.add_argument("--runs", type=int, default=5)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--distinct-seeds", action="store_true")
    p.add_argument("--holdout-seed", type=int, default=999)
    p.add_argument("--seconds", type=float, default=bench["run_seconds"])
    a = p.parse_args()
    workloads = a.workload or [w["name"] for w in bench["workloads"]]
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}

    all_ok = True
    for w in workloads:
        values = {}
        for i in range(a.runs):
            seed = a.seed + i if a.distinct_seeds else a.seed
            code, res = run_once(w, seed, a.seconds)
            ok = code == 0 and res.get("correct") is True
            all_ok = all_ok and ok
            print(f"{w} run {i + 1}/{a.runs} seed {seed}: exit {code}, "
                  f"correct {res.get('correct')}, attempted {res.get('attempted')}, "
                  f"failed {res.get('failed')}", flush=True)
            for name, m in res.get("metrics", {}).items():
                values.setdefault(name, []).append(m["value"])
        code, res = run_once(w, a.holdout_seed, a.seconds)
        all_ok = all_ok and code == 0 and res.get("correct") is True
        holdout = {k: m["value"] for k, m in res.get("metrics", {}).items()}
        print(f"{w} holdout seed {a.holdout_seed}: exit {code}, "
              f"correct {res.get('correct')}", flush=True)

        print(f"\n{w}: {'metric':<34} {'median':>12} {'q1':>12} {'q3':>12} "
              f"{'iqr/med':>8} {'maxdev':>8} {'bound':>6} {'holdout':>8}")
        for name, v in values.items():
            med = statistics.median(v)
            q1, _, q3 = statistics.quantiles(v, n=4) if len(v) > 1 else (med, 0, med)
            spread = (q3 - q1) / med if med else 0.0
            maxdev = max(abs(x - med) for x in v) / med if med else 0.0
            bound = bounds.get(name)
            hv = holdout.get(name)
            hdev = f"{(hv - med) / med:+.3f}" if hv is not None and med else "-"
            flag = "  FLAG" if maxdev > FLAG else ""
            if bound is not None and spread > bound / 3:
                flag += "  >bound/3"
            print(f"{w}: {name:<34} {med:12.5g} {q1:12.5g} {q3:12.5g} "
                  f"{spread:8.3f} {maxdev:8.3f} {bound if bound is not None else '-':>6} "
                  f"{hdev:>8}{flag}")
            if flag:
                print(f"{w}: {'':<34} runs: " + " ".join(f"{x:.4g}" for x in v))
        print(flush=True)
    return 0 if all_ok else 1


if __name__ == "__main__":
    sys.exit(main())
