#!/usr/bin/env python3
"""The benchmark's own tests: its correctness checks fire, its output keeps
the BENCHMARK.json contract, and it refuses to run without the sources.

Run from the root of a checkout (builds the benchmark on first use):

    python3 perfbench/test_perfbench.py
"""
import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    BENCH = json.load(f)
WORKLOADS = [w["name"] for w in BENCH["workloads"]]


def run(workload, *extra, cwd=ROOT, seconds=1, trace=0):
    cmd = [sys.executable, os.path.join(cwd, "perfbench", "run.py"),
           "--workload", workload, "--seed", "7", "--seconds", str(seconds),
           "--trace", str(trace), *extra]
    p = subprocess.run(cmd, cwd=cwd, stdout=subprocess.PIPE,
                       stderr=subprocess.PIPE, text=True, timeout=600)
    lines = p.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    return p.returncode, result, p.stdout


class SeededWrong(unittest.TestCase):
    def test_every_workload_reports_failure(self):
        for w in WORKLOADS:
            with self.subTest(workload=w):
                code, result, out = run(w, "--seeded-wrong")
                self.assertNotEqual(code, 0, out)
                self.assertIsNotNone(result, out)
                self.assertIs(result["correct"], False)
                # Both window kinds caught their planted write.
                self.assertIn(f"CHECK FAILED {w} wire", out)
                self.assertRegex(out, rf"CHECK FAILED {w} (EBR|HP|HazardPtrPOP|EpochPOP) ")


class Contract(unittest.TestCase):
    def test_untraced_run_prints_every_end_to_end_metric(self):
        for w in WORKLOADS:
            with self.subTest(workload=w):
                code, result, out = run(w)
                self.assertEqual(code, 0, out)
                self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
                self.assertIs(result["correct"], True)
                self.assertGreaterEqual(result["attempted"], 1)
                self.assertEqual(result["failed"], 0)
                want = {m["name"]: m["unit"] for m in BENCH["end_to_end"]}
                got = {k: v["unit"] for k, v in result["metrics"].items()}
                self.assertEqual(got, want)
                for k, v in result["metrics"].items():
                    self.assertGreater(v["value"], 0, k)

    def test_traced_run_prints_every_per_layer_metric_and_a_trace(self):
        code, result, out = run("write-stall", trace=1, seconds=2)
        self.assertEqual(code, 0, out)
        want = {m["name"]: m["unit"] for m in BENCH["per_layer"]}
        got = {k: v["unit"] for k, v in result["metrics"].items()}
        self.assertEqual(got, want)
        self.assertIn("# tracing overhead write-stall", out)
        trace = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"),
                             "perfbench", "traces", "trace-write-stall-seed7.json")
        with open(trace) as f:
            events = json.load(f)["traceEvents"]
        layers = {e["cat"] for e in events}
        for layer in ("runtime", "smr", "core", "ds", "service", "net"):
            self.assertIn(layer, layers)


class BareDirectory(unittest.TestCase):
    def test_fails_without_the_sources(self):
        with tempfile.TemporaryDirectory() as d:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), d)
            shutil.copytree(HERE, os.path.join(d, "perfbench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            code, result, out = run(WORKLOADS[0], cwd=d)
            self.assertNotEqual(code, 0)
            self.assertIsNone(result, out)


if __name__ == "__main__":
    unittest.main()
