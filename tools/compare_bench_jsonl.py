#!/usr/bin/env python3
"""Perf-trend backstop for the networked front end's JSONL rail.

Diffs the "net" rows of a bench_loadgen artifact against a checked-in
baseline (tools/net_baseline.json by default) and fails ONLY on a
collapse: throughput down, or p99 latency up, by more than the tolerance
(default 40%). This is deliberately not a micro-regression gate — CI
runners are noisy — it exists to catch the order-of-magnitude failure
modes (an accidental per-op bracket, a serialization bug, an event-loop
busy spin) the unit tests cannot see.

Usage:

  tools/compare_bench_jsonl.py net.jsonl [--baseline tools/net_baseline.json]
      [--tolerance-pct 40] [--write-baseline]

Cells are keyed by scenario/ds/smr/connections/pipeline_depth. Artifact
cells with no baseline entry (a new ds/smr pair) and baseline entries
absent from the artifact (a trimmed sweep) are reported but never fail
the run. Re-baselining after an intentional perf change:

  ./bench_loadgen --ds HMHT,RHHT --smr EBR,EpochPOP --short \
      --connections 4 --pipeline 8 --json net.jsonl
  tools/compare_bench_jsonl.py net.jsonl --write-baseline

then commit tools/net_baseline.json with a line in the PR explaining the
shift. --write-baseline rounds conservatively (mops down, p99 up) so a
lucky run does not ratchet the reference.
"""

import argparse
import json
import sys


def cell_key(row):
    return "{}/{}/{}/c{}/p{}".format(
        row["scenario"], row["ds"], row["smr"], row["connections"],
        row["pipeline_depth"])


def load_net_rows(path):
    rows = []
    with open(path, "r", encoding="utf-8") as f:
        for lineno, line in enumerate(f, 1):
            line = line.strip()
            if not line:
                continue
            try:
                row = json.loads(line)
            except json.JSONDecodeError as e:
                print(f"compare_bench_jsonl: {path}:{lineno}: bad JSON: {e}",
                      file=sys.stderr)
                return None
            if isinstance(row, dict) and row.get("kind") == "net":
                rows.append(row)
    return rows


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("artifact", help="bench_loadgen JSONL artifact")
    ap.add_argument("--baseline", default="tools/net_baseline.json",
                    metavar="FILE", help="baseline JSON (default: %(default)s)")
    ap.add_argument("--tolerance-pct", type=float, default=40.0,
                    metavar="PCT",
                    help="allowed regression before failing (default: "
                         "%(default)s — a collapse gate, not a noise gate)")
    ap.add_argument("--write-baseline", action="store_true",
                    help="rewrite the baseline from this artifact and exit")
    args = ap.parse_args()

    rows = load_net_rows(args.artifact)
    if rows is None:
        return 1
    if not rows:
        print(f"compare_bench_jsonl: {args.artifact}: no 'net' rows",
              file=sys.stderr)
        return 1
    observed = {}
    for row in rows:
        try:
            observed[cell_key(row)] = {
                "mops": float(row["mops"]),
                "p99_us": float(row["lat_p99_us"]),
            }
        except (KeyError, TypeError, ValueError) as e:
            print(f"compare_bench_jsonl: malformed net row ({e}): {row}",
                  file=sys.stderr)
            return 1

    if args.write_baseline:
        # Conservative rounding: a reference written from a lucky run
        # would fail honest future runs.
        cells = {
            k: {"mops": round(v["mops"] * 0.9, 3),
                "p99_us": round(v["p99_us"] * 1.1, 1)}
            for k, v in sorted(observed.items())
        }
        with open(args.baseline, "w", encoding="utf-8") as f:
            json.dump({"comment":
                       "bench_loadgen reference (see "
                       "tools/compare_bench_jsonl.py --help for "
                       "re-baselining); mops pre-derated 10%, p99 +10%",
                       "cells": cells}, f, indent=2, sort_keys=True)
            f.write("\n")
        print(f"compare_bench_jsonl: wrote {len(cells)} cell(s) to "
              f"{args.baseline}")
        return 0

    try:
        with open(args.baseline, "r", encoding="utf-8") as f:
            baseline = json.load(f)["cells"]
    except (OSError, KeyError, json.JSONDecodeError) as e:
        print(f"compare_bench_jsonl: cannot load baseline "
              f"{args.baseline}: {e}", file=sys.stderr)
        return 1

    tol = args.tolerance_pct / 100.0
    failures = []
    compared = 0
    for key, got in sorted(observed.items()):
        base = baseline.get(key)
        if base is None:
            print(f"compare_bench_jsonl: {key}: no baseline entry "
                  "(new cell — consider re-baselining)")
            continue
        compared += 1
        floor_mops = base["mops"] * (1.0 - tol)
        ceil_p99 = base["p99_us"] * (1.0 + tol)
        verdict = "ok"
        if got["mops"] < floor_mops:
            verdict = "THROUGHPUT COLLAPSE"
            failures.append(
                f"{key}: mops {got['mops']:.3f} < floor {floor_mops:.3f} "
                f"(baseline {base['mops']:.3f} - {args.tolerance_pct}%)")
        if got["p99_us"] > ceil_p99:
            verdict = "LATENCY COLLAPSE"
            failures.append(
                f"{key}: p99 {got['p99_us']:.1f}us > ceiling "
                f"{ceil_p99:.1f}us "
                f"(baseline {base['p99_us']:.1f}us + {args.tolerance_pct}%)")
        print(f"compare_bench_jsonl: {key}: mops {got['mops']:.3f} "
              f"(base {base['mops']:.3f}), p99 {got['p99_us']:.1f}us "
              f"(base {base['p99_us']:.1f}us) — {verdict}")
    for key in sorted(set(baseline) - set(observed)):
        print(f"compare_bench_jsonl: {key}: in baseline but not in this "
              "run (sweep trimmed?)")

    if failures:
        for fmsg in failures:
            print(f"compare_bench_jsonl: FAIL: {fmsg}", file=sys.stderr)
        return 1
    if compared == 0:
        print("compare_bench_jsonl: FAIL: no observed cell matched the "
              "baseline (key scheme drift?)", file=sys.stderr)
        return 1
    print(f"compare_bench_jsonl: OK — {compared} cell(s) within "
          f"{args.tolerance_pct}% of baseline")
    return 0


if __name__ == "__main__":
    sys.exit(main())
