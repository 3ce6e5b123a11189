#!/usr/bin/env python3
"""Build and run the repository benchmark.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload window10 --seed 7 --seconds 10 --trace 0
    python3 perfbench/run.py --selftest

The first call configures and builds perfbench/ (the ipin libraries from
src/ plus the benchmark driver) into .bench_build/perfbench; later calls
rebuild incrementally. The driver's last line of standard output is the
JSON result; the exit code is non-zero when the build fails, an output
check fails, or the run exceeds its time limit.
"""

import argparse
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
WORK_DIR = os.path.join(".bench_build", "work")
TRACE_DIR = os.path.join(".bench_build", "traces")
RUN_TIMEOUT_S = 170


def build():
    """Configures (once) and builds the benchmark; returns True on success."""
    log = sys.stderr
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        configure = subprocess.run(
            ["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B", BUILD_DIR,
             "-DCMAKE_BUILD_TYPE=Release"],
            stdout=log, stderr=log, check=False)
        if configure.returncode != 0:
            return False
    jobs = str(max(1, min(os.cpu_count() or 1, 4)))
    result = subprocess.run(
        ["cmake", "--build", BUILD_DIR, "-j", jobs, "--target", "perfbench",
         "perfbench_selftest"],
        stdout=log, stderr=log, check=False)
    return result.returncode == 0


def run(cmd):
    """Runs cmd from the checkout root, passing its output through."""
    env = dict(os.environ)
    env.setdefault("IPIN_LOG_LEVEL", "warn")
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, timeout=RUN_TIMEOUT_S,
                              check=False)
    except subprocess.TimeoutExpired:
        print(f"perfbench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1
    return proc.returncode


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()
    if not args.selftest and not args.workload:
        parser.error("--workload is required")

    if not build():
        print("perfbench: build failed", file=sys.stderr)
        return 1
    if args.selftest:
        return run([os.path.join(BUILD_DIR, "perfbench_selftest")])
    os.makedirs(os.path.join(ROOT, TRACE_DIR), exist_ok=True)
    trace_out = os.path.join(TRACE_DIR, f"{args.workload}-seed{args.seed}.json")
    sys.stdout.flush()
    return run([
        os.path.join(BUILD_DIR, "perfbench"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--work-dir", WORK_DIR,
        "--trace-out", trace_out,
    ])


if __name__ == "__main__":
    sys.exit(main())
