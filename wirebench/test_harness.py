#!/usr/bin/env python3
"""Harness tests for the wirebench benchmark.

    python3 wirebench/test_harness.py        (from the repository root)

Smoke-size runs (a tenth of the keys, one set-up, one-second windows)
check that every metric BENCHMARK.json names is emitted with its unit,
that the answer oracle catches a planted wrong answer, that every daemon
is reaped on normal and interrupted exits, and that the benchmark fails
cleanly where there is nothing to build.
"""

import json
import os
import shutil
import signal
import subprocess
import sys
import time
import unittest
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN = ROOT / "wirebench" / "run.py"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run(workload, trace=0, extra=(), seconds=1):
    cmd = [sys.executable, str(RUN), "--workload", workload, "--seed", "7",
           "--seconds", str(seconds), "--trace", str(trace), "--smoke",
           *extra]
    return subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=300)


def result_of(proc):
    return json.loads(proc.stdout.strip().splitlines()[-1])


def bench_daemons():
    """Pids of multilogd processes serving a benchmark run directory."""
    marker = str(ROOT / ".bench_build" / "runs")
    pids = []
    for entry in Path("/proc").iterdir():
        if not entry.name.isdigit():
            continue
        try:
            cmdline = (entry / "cmdline").read_bytes().replace(b"\0", b" ")
        except OSError:
            continue
        if b"multilogd" in cmdline and marker.encode() in cmdline:
            pids.append(int(entry.name))
    return pids


class MetricsEmitted(unittest.TestCase):
    def check(self, trace, listed):
        for workload in WORKLOADS:
            with self.subTest(workload=workload, trace=trace):
                proc = run(workload, trace=trace)
                self.assertEqual(proc.returncode, 0, proc.stderr[-2000:])
                res = result_of(proc)
                self.assertEqual(set(res), {"correct", "attempted", "failed",
                                            "metrics"})
                self.assertTrue(res["correct"])
                self.assertEqual(res["failed"], 0)
                self.assertGreaterEqual(res["attempted"], 1)
                want = {m["name"]: m["unit"] for m in listed}
                got = {k: v["unit"] for k, v in res["metrics"].items()}
                self.assertEqual(got, want)
                for name, value in res["metrics"].items():
                    self.assertIsInstance(value["value"], (int, float), name)
                self.assertEqual(bench_daemons(), [])

    def test_end_to_end_metrics(self):
        self.check(0, SPEC["end_to_end"])

    def test_per_layer_metrics(self):
        self.check(1, SPEC["per_layer"])

    def test_report_and_stamp_lines(self):
        proc = run("write_mix")
        lines = proc.stdout.splitlines()
        stamp = json.loads(next(l for l in lines if l.startswith("stamp "))[6:])
        for key in ("nproc", "cpu", "compiler", "build_type", "flags",
                    "optimised"):
            self.assertIn(key, stamp)
        report = json.loads(next(l for l in lines if l.startswith("report "))[7:])
        self.assertEqual(report["failed_ops_frac"], 0)
        for op in ("read", "goal", "write", "replica_read", "repl_lag"):
            self.assertGreater(report[op + "_samples"], 0, op)
            self.assertIn(op + "_p50_ms", report)
            self.assertIn(op + "_p99_ms", report)


class Oracle(unittest.TestCase):
    def test_catches_injected_wrong_answer(self):
        for workload in ("point_read", "routed_read"):
            with self.subTest(workload=workload):
                proc = run(workload, extra=["--inject-wrong-answer"])
                self.assertNotEqual(proc.returncode, 0)
                res = result_of(proc)
                self.assertFalse(res["correct"])
                self.assertGreaterEqual(res["failed"], 1)
                self.assertIn("oracle mismatch", proc.stderr)


class ProcessHygiene(unittest.TestCase):
    def test_interrupted_run_reaps_daemons(self):
        proc = subprocess.Popen(
            [sys.executable, str(RUN), "--workload", "write_mix", "--seed",
             "7", "--seconds", "60", "--trace", "0", "--smoke"],
            cwd=ROOT, stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL)
        try:
            deadline = time.time() + 120
            while time.time() < deadline and len(bench_daemons()) < 2:
                time.sleep(0.1)
            self.assertGreaterEqual(len(bench_daemons()), 2)
            proc.send_signal(signal.SIGTERM)
            proc.wait(timeout=30)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        deadline = time.time() + 10
        while time.time() < deadline and bench_daemons():
            time.sleep(0.1)
        self.assertEqual(bench_daemons(), [])

    def test_fails_without_sources(self):
        # Only BENCHMARK.json and the benchmark's own files: nothing to
        # build, so the run must fail fast and print no result.
        bare = ROOT / ".bench_build" / "bare-checkout"
        shutil.rmtree(bare, ignore_errors=True)
        bare.mkdir(parents=True)
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(ROOT / "wirebench", bare / "wirebench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        try:
            proc = subprocess.run(
                [sys.executable, "wirebench/run.py", "--workload",
                 "point_read", "--seed", "1", "--seconds", "1", "--trace",
                 "0"], cwd=bare, capture_output=True, text=True, timeout=180)
            self.assertNotEqual(proc.returncode, 0)
            self.assertNotIn('"correct"', proc.stdout)
        finally:
            shutil.rmtree(bare, ignore_errors=True)


if __name__ == "__main__":
    os.chdir(ROOT)
    unittest.main(verbosity=2)
