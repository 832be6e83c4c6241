#!/usr/bin/env python3
"""The repository benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout. Builds perfbench/perfbench.exe
with dune (release profile, build directory .bench_build), then:

  --trace 0  measures the end-to-end metrics: set-up time, repeated timed
             workload runs for S seconds, and the workload's peak major
             heap (median of fresh processes);
  --trace 1  runs the traced pass and prints the per-layer metrics; the
             host-time and simulated-time spans go to .perfbench-out/.

Human-readable lines (run digests, notes, failed checks) come first; the
last line of standard output is the JSON result. Exits 1 when the build
fails or any correctness check fails.
"""

import argparse
import json
import os
import subprocess
import sys
import time

BUILD_DIR = ".bench_build"
EXE = os.path.join(BUILD_DIR, "default", "perfbench", "perfbench.exe")
OUT_DIR = ".perfbench-out"
DEADLINE_S = 170.0
# Recovery passes spawn helper domains, which move the peak heap a little
# from run to run, so the peak is the median of this many fresh processes.
PEAK_RUNS = 3


def fail(msg):
    print(msg, file=sys.stderr)
    sys.exit(1)


def build(deadline):
    cmd = ["dune", "build", "--root", ".", "--profile", "release",
           "--build-dir", BUILD_DIR, "--cache", "disabled",
           "./perfbench/perfbench.exe"]
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                              text=True, timeout=max(1.0, deadline - time.monotonic()))
    except (OSError, subprocess.TimeoutExpired) as e:
        fail(f"build failed: {e}")
    if done.returncode != 0:
        fail("build failed:\n" + done.stdout)


def call(args, deadline):
    """Run the benchmark executable; echo its notes, return (ok, result)."""
    try:
        done = subprocess.run([EXE] + args, stdout=subprocess.PIPE, text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        fail(f"perfbench {' '.join(args)}: timed out")
    lines = done.stdout.strip().splitlines()
    if not lines:
        fail(f"perfbench {' '.join(args)}: no output (exit {done.returncode})")
    for line in lines[:-1]:
        print(line)
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        fail(f"perfbench {' '.join(args)}: unreadable result line: {lines[-1]}")
    return done.returncode == 0 and result["correct"], result


def peak(args, deadline):
    """Median peak heap over PEAK_RUNS fresh processes."""
    runs = [call(["peak"] + args, deadline) for _ in range(PEAK_RUNS)]
    mbs = sorted(r["metrics"]["peak_heap_mb"]["value"] for _, r in runs)
    return all(ok for ok, _ in runs), {
        "attempted": sum(r["attempted"] for _, r in runs),
        "failed": sum(r["failed"] for _, r in runs),
        "metrics": {"peak_heap_mb": {"value": mbs[len(mbs) // 2], "unit": "MB"}},
    }


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    a = ap.parse_args()
    # The first run in a fresh checkout builds; the deadline covers the
    # measurement that follows.
    build(time.monotonic() + 900.0)
    deadline = time.monotonic() + DEADLINE_S
    common = ["--workload", a.workload, "--seed", str(a.seed)]
    results = []
    if a.trace == 0:
        results.append(call(["measure"] + common + ["--seconds", str(a.seconds)], deadline))
        results.append(peak(common, deadline))
    else:
        os.makedirs(OUT_DIR, exist_ok=True)
        results.append(call(["traced"] + common + ["--out", OUT_DIR], deadline))
        ok_full, full = peak(common, deadline)
        ok_half, half = peak(common + ["--horizon", "0.5"], deadline)
        mb_full = full["metrics"]["peak_heap_mb"]["value"]
        mb_half = half["metrics"]["peak_heap_mb"]["value"]
        growth = mb_full / mb_half if mb_half > 0 else 0.0
        results.append((ok_full and ok_half, {
            "attempted": full["attempted"] + half["attempted"],
            "failed": full["failed"] + half["failed"],
            "metrics": {"mem.heap_growth_ratio": {"value": growth, "unit": "ratio"}},
        }))
    metrics = {}
    for _, r in results:
        metrics.update(r["metrics"])
    ok = all(ok for ok, _ in results)
    print(json.dumps({
        "correct": ok,
        "attempted": sum(r["attempted"] for _, r in results),
        "failed": sum(r["failed"] for _, r in results),
        "metrics": metrics,
    }))
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
