#!/usr/bin/env python3
"""Builds and runs the resex benchmark (perfbench) from source.

    python3 perfbench/run.py --workload serve_cold --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --selftest

The C++ package in this directory compiles the resex library from ../src
into $CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench), then
runs one workload. Build output goes to stderr; the program's stdout is
passed through, so its last line is the run's JSON result. Exits nonzero,
without a result, when the sources are missing or the build fails.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("serve_cold", "serve_cached", "rebalance", "live_move")
RUN_TIMEOUT_S = 170


def build(build_dir, target):
    jobs = str(os.cpu_count() or 4)
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "--target", target, "-j", jobs])
    for cmd in steps:
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            print("perfbench: build step failed: " + " ".join(cmd), file=sys.stderr)
            return False
    return True


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true",
                        help="build and run the benchmark's own tests")
    args = parser.parse_args()
    if not args.selftest and not args.workload:
        parser.error("--workload is required")

    target_root = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isabs(target_root):
        target_root = os.path.join(ROOT, target_root)
    build_dir = os.path.join(target_root, "perfbench")
    target = "perfbench_tests" if args.selftest else "perfbench"
    if not build(build_dir, target):
        return 1

    binary = os.path.join(build_dir, target)
    if args.selftest:
        cmd = [binary]
    else:
        cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--out-dir", os.path.join(target_root, "out"),
               "--work-dir", os.path.join(target_root, "work")]
    proc = subprocess.Popen(cmd, cwd=ROOT)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
