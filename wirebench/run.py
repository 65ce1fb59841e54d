#!/usr/bin/env python3
"""Entry point of the repository benchmark (see BENCHMARK.json).

    python3 wirebench/run.py --workload point_read --seed 1 --seconds 10 --trace 0

Builds multilogd and the wirebench load generator from the checkout's
sources into .bench_build/ (Release), then runs one workload: set-up
(three times; setup_s is the median), the measured window, the answer
oracle, teardown. The last line of stdout is the result object
{"correct", "attempted", "failed", "metrics"}; --trace 0 reports the
end-to-end metrics, --trace 1 the per-layer ones from a traced run.

Workloads (why each exists is in BENCHMARK.json):
  point_read   5k keys, cached point reads, 4 pipelined connections
  scan_read    3k keys, key-free belief scans, 4 connections at depth 1
  write_mix    durable primary + replica: 2 committers, 1 reader of
               cached levels and uncached recursive goals, 1 replica reader
  routed_read  3k keys over 3 shards behind multilogd --router

Every daemon runs with --port 0 and a data directory under
.bench_build/runs/, which is removed afterwards; every process started
is stopped and waited for on every exit path.
"""

import argparse
import os
import shutil
import signal
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BUILD = ROOT / ".bench_build"
WORKLOADS = ("point_read", "scan_read", "write_mix", "routed_read")
RUN_TIMEOUT_S = 170


def build() -> bool:
    """Configures once and builds incrementally; build output goes to
    stderr so stdout carries only the benchmark's lines."""
    jobs = str(os.cpu_count() or 1)
    steps = []
    if not (BUILD / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(ROOT / "wirebench"), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD), "--target", "multilogd",
                  "wirebench", "-j", jobs])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode:
            print("wirebench: build failed: " + " ".join(step), file=sys.stderr)
            return False
    return True


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # Harness-test knobs: smaller inputs and one set-up, a planted fault.
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--inject-wrong-answer", action="store_true")
    args = parser.parse_args()

    if not build():
        return 1
    binary = BUILD / "wirebench"
    multilogd = BUILD / "multilog" / "src" / "server" / "multilogd"
    workdir = BUILD / "runs" / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)

    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--multilogd", str(multilogd), "--workdir", str(workdir)]
    if args.smoke:
        cmd.append("--smoke")
    if args.inject_wrong_answer:
        cmd.append("--inject-wrong-answer")

    # The load generator leads its own process group: its daemons are in
    # it too, so one killpg reaps everything on an abnormal exit.
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)

    def kill_group(*_):
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass

    def on_signal(signum, _frame):
        # The load generator kills and waits for its daemons on SIGTERM;
        # the group kill is the backstop if it does not end in time.
        proc.terminate()
        try:
            proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            pass
        kill_group()
        proc.wait()
        shutil.rmtree(workdir, ignore_errors=True)
        sys.exit(128 + signum)

    signal.signal(signal.SIGTERM, on_signal)
    signal.signal(signal.SIGINT, on_signal)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        kill_group()
        proc.communicate()
        print(f"wirebench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        shutil.rmtree(workdir, ignore_errors=True)
        return 1
    finally:
        # Daemons of a crashed load generator die with it (PDEATHSIG);
        # this is the belt to those braces.
        kill_group()
    shutil.rmtree(workdir, ignore_errors=True)
    sys.stdout.write(out)
    sys.stdout.flush()
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
