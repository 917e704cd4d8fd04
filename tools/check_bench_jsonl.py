#!/usr/bin/env python3
"""Validate popsmr benchmark JSONL artifacts (BENCH_*.json).

Every bench binary appends JSON Lines to the path given by its --json
flag. Two row families exist:

  * kind-tagged rows: "scenario", "phase", "mem_sample", "shard" and
    "latency" from bench_scenarios (every figure, ablation and sweep
    preset), "net" and "conn" from bench_loadgen
  * micro rows ("bench": "...") from the microbenchmarks

CI's smoke jobs run this gate over their artifacts so a malformed or —
the historical failure mode — silently *empty* artifact fails the job
instead of uploading garbage. Usage:

  tools/check_bench_jsonl.py BENCH_*.json [--require-kind scenario] \
      [--min-rows 1] [--summary]

Exits 0 iff every named file exists, is non-empty, every line parses as
a JSON object matching its family's schema, and every --require-kind
appears at least once across all files.
"""

import argparse
import json
import sys

# Required fields per kind-tagged row family: (name, type) pairs. bool is
# accepted for int fields only where noted in BOOL_OK; numbers must not
# be NaN/inf (json.loads would have produced float('nan') from bare NaN,
# which the emitters never write — reject them anyway).
NUM = (int, float)

# The documented bool-as-int fields: a C emitter printing a flag as 0/1
# and a hand-written fixture using true/false must both pass. Every other
# field rejects bools (Python's bool is an int subclass, so without this
# carve-out `"retired": true` would silently satisfy an int schema).
BOOL_OK = {"victim_parked", "hw_valid"}

# Per-op outcome breakdown on the row families that report a run of the
# KV workload loop (get hit ratio, put insert/replace split, and
# the read-your-writes validation verdict).
PER_OP = {
    "gets": int, "get_hits": int, "inserts": int, "erases": int,
    "puts": int, "put_replaced": int, "rw_violations": int,
}

# Every row (tagged and micro alike) is stamped with the
# process-wide run id and a wall-clock ms timestamp so concatenated
# multi-run artifacts stay disambiguable.
STAMP = {"run_id": int, "ts": int}

# The --latency percentile block (zero-filled when recording is off) on
# the row families that summarize a workload run.
LAT = {
    "lat_ops": int, "lat_p50_us": NUM, "lat_p90_us": NUM,
    "lat_p99_us": NUM, "lat_p999_us": NUM, "lat_max_us": NUM,
}

# The --hw-counters derived rates; hw_valid is a documented bool-as-int
# flag (0 when perf_event_open was refused and the counts are zero-fill).
HW = {"ipc": NUM, "llc_miss_rate": NUM, "hw_valid": int}

# Wire-op outcome counters shared by the networked front end's rows
# (bench_loadgen): the wire has no insert/erase split, so the breakdown
# is GET/PUT/DEL/PING plus socket- or framing-level errors.
NET_OPS = {
    "ops": int, "gets": int, "get_hits": int, "puts": int,
    "put_replaced": int, "dels": int, "del_hits": int, "pings": int,
    "errors": int,
}

# Fields that must be strictly positive where present: a "net"/"conn" row
# claiming zero connections or a zero-deep pipeline describes a run that
# cannot have produced the ops it reports.
POSITIVE = {"connections", "pipeline_depth"}

SCHEMAS = {
    # One per cell. The cell's identity (structure, key range and
    # provisioning, shard layout, the phase-0 op mix, the SMR knobs),
    # then throughput, recovery_pct against the sweep's reference cell (0
    # without one), memory, the fault/watchdog counters (fault is
    # signal-loss / thread-kill / pressure / none) and the shard spread.
    "scenario": {
        **STAMP, **LAT, **HW,
        "scenario": str, "ds": str, "smr": str, "threads": int,
        "shards": int, "shard_hash": str, "key_range": int,
        "initial_capacity": int, "deficit": int, "pct_insert": int,
        "pct_erase": int, "pct_put": int, "retire_threshold": int,
        "epoch_freq": int, "pop_multiplier": int, "pressure_bound": int,
        "seconds": NUM, "mops": NUM, "read_mops": NUM,
        "recovery_pct": NUM, "retired": int, "freed": int,
        "signals_sent": int, "vm_hwm_kib": int, "churn_cycles": int,
        "baseline_unreclaimed": int, "stall_peak_unreclaimed": int,
        "final_unreclaimed": int, "stall_parked_at_ms": int,
        "stall_resumed_at_ms": int, "fault": str, "kills": int,
        "signals_suppressed": int, "first_kill_at_ms": int,
        "recovered_at_ms": int, "waves_timed_out": int, "tids_reaped": int,
        "orphans_adopted": int, "pressure_events": int,
        "forced_handshakes": int, "grows": int, "shrinks": int,
        "buckets_final": int, "pool_live_blocks": int,
        "shard_ops_max": int, "shard_ops_min": int, **PER_OP,
    },
    "latency": {
        **STAMP,
        "scenario": str, "ds": str, "smr": str, "threads": int,
        "shards": int, "op": str, "count": int, "p50_us": NUM,
        "p90_us": NUM, "p99_us": NUM, "p999_us": NUM, "max_us": NUM,
    },
    "phase": {
        **STAMP, **LAT, **HW,
        "scenario": str, "ds": str, "smr": str, "phase": str, "idx": int,
        "threads": int, "seconds": NUM, "mops": NUM, "read_mops": NUM,
        "retired": int, "freed": int, "signals_sent": int, "pings": int,
        "neutralized": int, "max_retire_len": int, "unreclaimed_end": int,
        "cycles": int, "instructions": int, "llc_misses": int,
        "ctx_switches": int, **PER_OP,
    },
    "mem_sample": {
        **STAMP,
        "scenario": str, "ds": str, "smr": str, "t_ms": int, "phase": int,
        "vm_rss_kib": int, "vm_hwm_kib": int, "unreclaimed": int,
        "pool_live_blocks": int, "victim_parked": int,
    },
    # bench_loadgen's per-cell summary: end-to-end client-side latency
    # (the lat_* block) over every connection, plus the wire-op totals.
    "net": {
        **STAMP, **LAT, **NET_OPS,
        "scenario": str, "ds": str, "smr": str, "threads": int,
        "shards": int, "connections": int, "pipeline_depth": int,
        "seconds": NUM, "mops": NUM,
    },
    # bench_loadgen's per-connection row: one per client connection, with
    # that connection's own percentile block (fairness across the
    # multiplexed workers is visible as p99 spread between conn rows).
    "conn": {
        **STAMP, **NET_OPS,
        "scenario": str, "ds": str, "smr": str, "conn": int,
        "connections": int, "pipeline_depth": int, "p50_us": NUM,
        "p90_us": NUM, "p99_us": NUM, "p999_us": NUM, "max_us": NUM,
    },
    "shard": {
        **STAMP,
        "scenario": str, "ds": str, "smr": str, "threads": int,
        "shards": int, "shard": int, "ops": int, "retired": int,
        "freed": int, "unreclaimed": int, "signals_sent": int,
        "get_hits": int, "get_misses": int, "put_inserts": int,
        "put_replaces": int, "resizes": int, "buckets_final": int,
        "waves_timed_out": int, "tids_reaped": int,
        "pressure_events": int, "forced_handshakes": int,
    },
}

# Optional per-kind columns, present only when the producing run armed
# the feature: the SMR contract sanitizer (POPSMR_AUDIT=1) adds
# audit_violations to its summary rows, and an unaudited run omits the
# column entirely rather than writing an ambiguous 0. When present the
# value must be 0 — a green artifact never carries contract violations.
OPTIONAL = {
    "scenario": {"audit_violations": int},
}
ZERO_REQUIRED = {"audit_violations"}

# The one untagged family, identified by its "bench" field.
MICRO_REQUIRED = {**STAMP, "bench": str, "threads": int}


def check_fields(row, schema, where, errors):
    for field, ftype in schema.items():
        if field not in row:
            errors.append(f"{where}: missing field '{field}'")
            continue
        v = row[field]
        # bools are ints in Python; reject them for numeric fields except
        # the documented bool-as-int flags in BOOL_OK.
        if isinstance(v, bool) and field in BOOL_OK:
            continue
        if isinstance(v, bool) or not isinstance(v, ftype):
            errors.append(
                f"{where}: field '{field}' has type {type(v).__name__}, "
                f"expected {ftype}")
            continue
        if isinstance(v, float) and (v != v or v in (float("inf"),
                                                     float("-inf"))):
            errors.append(f"{where}: field '{field}' is NaN/inf")


def check_row(row, where, errors, kind_counts):
    if not isinstance(row, dict):
        errors.append(f"{where}: not a JSON object")
        return
    if "kind" in row:
        kind = row["kind"]
        if kind not in SCHEMAS:
            errors.append(f"{where}: unknown kind '{kind}'")
            return
        kind_counts[kind] = kind_counts.get(kind, 0) + 1
        check_fields(row, SCHEMAS[kind], f"{where} [{kind}]", errors)
        for field, ftype in OPTIONAL.get(kind, {}).items():
            if field not in row:
                continue
            v = row[field]
            if isinstance(v, bool) or not isinstance(v, ftype):
                errors.append(
                    f"{where} [{kind}]: field '{field}' has type "
                    f"{type(v).__name__}, expected {ftype}")
            elif field in ZERO_REQUIRED and v != 0:
                errors.append(
                    f"{where} [{kind}]: field '{field}' must be 0 in a "
                    f"green artifact, got {v}")
        for field in POSITIVE & SCHEMAS[kind].keys():
            v = row.get(field)
            if isinstance(v, int) and not isinstance(v, bool) and v <= 0:
                errors.append(
                    f"{where} [{kind}]: field '{field}' must be >= 1, "
                    f"got {v}")
    elif "bench" in row:
        kind_counts["micro"] = kind_counts.get("micro", 0) + 1
        check_fields(row, MICRO_REQUIRED, f"{where} [micro]", errors)
    else:
        errors.append(f"{where}: row has neither a kind nor a bench tag")


def self_test():
    """Regression cases for the checker itself (run with --self-test).

    Each case is (description, row, should_pass). The load-bearing one is
    the bool regression: `"retired": true` must FAIL even though Python's
    bool is an int subclass — only the documented BOOL_OK flags may carry
    a JSON bool.
    """
    stamp_ok = {"run_id": 1754600000000000000, "ts": 1754600000000}
    lat_ok = {
        "lat_ops": 301284, "lat_p50_us": 0.294, "lat_p90_us": 0.47,
        "lat_p99_us": 0.51, "lat_p999_us": 24.192, "lat_max_us": 5984.301,
    }
    shard_ok = {
        "kind": "shard", **stamp_ok, "scenario": "s", "ds": "RHHT",
        "smr": "EBR",
        "threads": 2, "shards": 4, "shard": 0, "ops": 10, "retired": 5,
        "freed": 5, "unreclaimed": 0, "signals_sent": 0, "get_hits": 1,
        "get_misses": 1, "put_inserts": 1, "put_replaces": 1, "resizes": 3,
        "buckets_final": 256, "waves_timed_out": 0, "tids_reaped": 0,
        "pressure_events": 2, "forced_handshakes": 2,
    }
    latency_ok = {
        "kind": "latency", **stamp_ok, "scenario": "stall-recovery",
        "ds": "HML", "smr": "EpochPOP", "threads": 2, "shards": 1,
        "op": "ping_wave", "count": 18, "p50_us": 22.4, "p90_us": 28.0,
        "p99_us": 5203.6, "p999_us": 5203.6, "max_us": 5203.6,
    }
    mem_ok = {
        "kind": "mem_sample", **stamp_ok, "scenario": "s", "ds": "HML",
        "smr": "HP",
        "t_ms": 1, "phase": 0, "vm_rss_kib": 1, "vm_hwm_kib": 1,
        "unreclaimed": 0, "pool_live_blocks": 0, "victim_parked": 0,
    }
    scenario_ok = {
        "kind": "scenario", **stamp_ok, **lat_ok, "ipc": 1.1,
        "llc_miss_rate": 0.2, "hw_valid": 1, "scenario": "resize",
        "ds": "RHHT", "smr": "EBR", "threads": 2, "shards": 1,
        "shard_hash": "splitmix", "key_range": 16384,
        "initial_capacity": 256, "deficit": 64, "pct_insert": 70,
        "pct_erase": 0, "pct_put": 20, "retire_threshold": 512,
        "epoch_freq": 64, "pop_multiplier": 2, "pressure_bound": 0,
        "seconds": 0.4, "mops": 1.0, "read_mops": 0.5,
        "recovery_pct": 97.5, "retired": 6, "freed": 6, "signals_sent": 0,
        "vm_hwm_kib": 1, "churn_cycles": 0, "baseline_unreclaimed": 0,
        "stall_peak_unreclaimed": 0, "final_unreclaimed": 0,
        "stall_parked_at_ms": 0, "stall_resumed_at_ms": 0,
        "fault": "none", "kills": 0, "signals_suppressed": 0,
        "first_kill_at_ms": 0, "recovered_at_ms": 0, "waves_timed_out": 0,
        "tids_reaped": 0, "orphans_adopted": 0, "pressure_events": 0,
        "forced_handshakes": 0, "grows": 6, "shrinks": 0,
        "buckets_final": 4096, "pool_live_blocks": 100,
        "shard_ops_max": 0, "shard_ops_min": 0, "gets": 1, "get_hits": 1,
        "inserts": 0, "erases": 0, "puts": 0, "put_replaced": 0,
        "rw_violations": 0,
    }
    fault_ok = {**scenario_ok, "scenario": "zombie-storm",
                "fault": "thread-kill", "kills": 4, "tids_reaped": 4,
                "orphans_adopted": 2721}
    net_ops_ok = {
        "ops": 47748, "gets": 23946, "get_hits": 11786, "puts": 11753,
        "put_replaced": 5754, "dels": 12045, "del_hits": 5992, "pings": 4,
        "errors": 0,
    }
    net_ok = {
        "kind": "net", **stamp_ok, **lat_ok, **net_ops_ok,
        "scenario": "uniform-mixed", "ds": "HMHT", "smr": "EBR",
        "threads": 2, "shards": 1, "connections": 4, "pipeline_depth": 8,
        "seconds": 0.05, "mops": 0.952,
    }
    conn_ok = {
        "kind": "conn", **stamp_ok, **net_ops_ok,
        "scenario": "uniform-mixed", "ds": "HMHT", "smr": "EBR", "conn": 0,
        "connections": 4, "pipeline_depth": 8, "p50_us": 27.7,
        "p90_us": 51.9, "p99_us": 95.7, "p999_us": 142.3, "max_us": 152.6,
    }
    cases = [
        ("valid shard row", shard_ok, True),
        ("valid net row", net_ok, True),
        ("valid conn row", conn_ok, True),
        ("net row without the lat_* block",
         {k: v for k, v in net_ok.items() if k != "lat_p999_us"}, False),
        ("net row without pipeline_depth",
         {k: v for k, v in net_ok.items() if k != "pipeline_depth"}, False),
        ("net row with zero connections must be rejected",
         {**net_ok, "connections": 0}, False),
        ("conn row with non-positive pipeline_depth must be rejected",
         {**conn_ok, "pipeline_depth": -8}, False),
        ("conn row without per-conn percentiles",
         {k: v for k, v in conn_ok.items() if k != "p999_us"}, False),
        ("net errors counter as bool must be rejected",
         {**net_ok, "errors": False}, False),
        ("valid latency row", latency_ok, True),
        ("latency op must be a string",
         {**latency_ok, "op": 7}, False),
        ("latency row without run_id stamp",
         {k: v for k, v in latency_ok.items() if k != "run_id"}, False),
        ("valid scenario row", scenario_ok, True),
        ("valid fault scenario row", fault_ok, True),
        ("scenario row without the lat_* block",
         {k: v for k, v in fault_ok.items() if k != "lat_p99_us"}, False),
        ("scenario row must carry hw fields",
         {k: v for k, v in scenario_ok.items() if k != "ipc"}, False),
        ("hw_valid as bool (documented bool-as-int)",
         {**scenario_ok, "hw_valid": True}, True),
        ("shard row without fault counters",
         {k: v for k, v in shard_ok.items()
          if k != "forced_handshakes"}, False),
        ("fault name must be a string",
         {**fault_ok, "fault": 3}, False),
        ("tids_reaped as bool must be rejected",
         {**fault_ok, "tids_reaped": True}, False),
        ("missing pressure_bound", {k: v for k, v in scenario_ok.items()
                                    if k != "pressure_bound"}, False),
        ("missing shard_ops_max", {k: v for k, v in scenario_ok.items()
                                   if k != "shard_ops_max"}, False),
        ("valid mem_sample row", mem_ok, True),
        ("victim_parked as bool (documented bool-as-int)",
         {**mem_ok, "victim_parked": True}, True),
        ("retired as bool must be rejected",
         {**shard_ok, "retired": True}, False),
        ("recovery_pct as bool must be rejected",
         {**scenario_ok, "recovery_pct": False}, False),
        ("missing deficit", {k: v for k, v in scenario_ok.items()
                             if k != "deficit"}, False),
        ("unknown kind", {"kind": "nope"}, False),
        ("resize is not a row kind", {**scenario_ok, "kind": "resize"},
         False),
        ("untagged row must be rejected",
         {k: v for k, v in scenario_ok.items() if k != "kind"}, False),
        ("non-object row", [1, 2, 3], False),
        ("audited scenario row with explicit zero violations",
         {**scenario_ok, "audit_violations": 0}, True),
        ("nonzero audit_violations must be rejected",
         {**fault_ok, "audit_violations": 3}, False),
        ("audit_violations as bool must be rejected",
         {**fault_ok, "audit_violations": False}, False),
    ]
    failures = 0
    for desc, row, should_pass in cases:
        errors = []
        check_row(row, "self-test", errors, {})
        passed = not errors
        if passed != should_pass:
            failures += 1
            print(f"check_bench_jsonl: self-test FAIL: {desc} "
                  f"(expected {'pass' if should_pass else 'fail'}, "
                  f"errors={errors})", file=sys.stderr)
    if failures:
        return 1
    print(f"check_bench_jsonl: self-test OK — {len(cases)} cases")
    return 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("files", nargs="*", help="JSONL artifacts to validate")
    ap.add_argument("--require-kind", action="append", default=[],
                    metavar="KIND",
                    help="fail unless at least one row of KIND exists "
                         "(scenario, phase, mem_sample, shard, latency, "
                         "net, conn, micro); repeatable")
    ap.add_argument("--min-rows", type=int, default=1, metavar="N",
                    help="fail any file with fewer than N rows (default 1: "
                         "an empty artifact is a failure, not a pass)")
    ap.add_argument("--summary", action="store_true",
                    help="print per-kind row counts on success")
    ap.add_argument("--self-test", action="store_true",
                    help="run the checker's own regression cases and exit")
    args = ap.parse_args()

    if args.self_test:
        return self_test()
    if not args.files:
        ap.error("no input files (or pass --self-test)")

    errors = []
    kind_counts = {}
    total_rows = 0
    for path in args.files:
        try:
            with open(path, "r", encoding="utf-8") as f:
                lines = f.read().splitlines()
        except OSError as e:
            errors.append(f"{path}: unreadable: {e}")
            continue
        rows = 0
        for lineno, line in enumerate(lines, 1):
            if not line.strip():
                continue
            where = f"{path}:{lineno}"
            try:
                row = json.loads(line)
            except json.JSONDecodeError as e:
                errors.append(f"{where}: invalid JSON: {e}")
                continue
            rows += 1
            check_row(row, where, errors, kind_counts)
        if rows < args.min_rows:
            errors.append(
                f"{path}: only {rows} row(s), expected >= {args.min_rows} "
                "(empty artifacts previously passed CI silently)")
        total_rows += rows

    for kind in args.require_kind:
        if kind_counts.get(kind, 0) == 0:
            errors.append(
                f"required kind '{kind}' absent from all inputs "
                f"(saw: {sorted(kind_counts) or 'nothing'})")

    if errors:
        for e in errors[:50]:
            print(f"check_bench_jsonl: {e}", file=sys.stderr)
        if len(errors) > 50:
            print(f"check_bench_jsonl: ... and {len(errors) - 50} more",
                  file=sys.stderr)
        return 1

    if args.summary:
        counts = ", ".join(f"{k}={v}" for k, v in sorted(kind_counts.items()))
        print(f"check_bench_jsonl: OK — {total_rows} rows ({counts})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
