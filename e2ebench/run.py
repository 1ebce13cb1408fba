#!/usr/bin/env python3
"""Builds bench_e2e from source and runs one workload.

    python3 e2ebench/run.py --workload tpch-vm --seed 1 --seconds 10 --trace 0

Run from the root of a checkout. The build goes to
$CARGO_TARGET_DIR/e2ebench (default .bench_build/e2ebench), is configured
once and rebuilt incrementally, and its output goes to stderr, so the last
line of stdout is the benchmark's JSON result. --trace 1 runs the traced
build (bench_e2e_traced) and prints the per-layer metrics.
"""

import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def trace_flag(argv):
    for i, arg in enumerate(argv[:-1]):
        if arg == "--trace":
            return argv[i + 1]
    return "0"


def build(target):
    build_dir = os.path.join(
        os.environ.get("CARGO_TARGET_DIR") or ".bench_build", "e2ebench")
    os.makedirs(build_dir, exist_ok=True)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", build_dir,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            shutil.rmtree(build_dir, ignore_errors=True)
            sys.exit("bench_e2e: configure failed")
    cmd = ["cmake", "--build", build_dir, "--target", target, "-j", jobs]
    if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
        sys.exit("bench_e2e: build failed")
    return os.path.join(build_dir, target)


def main():
    args = sys.argv[1:]
    target = "bench_e2e_traced" if trace_flag(args) == "1" else "bench_e2e"
    binary = build(target)
    return subprocess.run([binary] + args).returncode


if __name__ == "__main__":
    sys.exit(main())
