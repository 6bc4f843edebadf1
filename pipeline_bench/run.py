#!/usr/bin/env python3
# Copyright 2026 The Privacy-MaxEnt Reproduction Authors.
# Licensed under the Apache License, Version 2.0.
"""Runs one workload of the pipeline benchmark.

    python3 pipeline_bench/run.py --workload paper-serve --seed 1 \
        --seconds 10 --trace 0

Builds pipeline_bench from source (Release) under $CARGO_TARGET_DIR, or
.bench_build when that is unset, generates the seeded inputs into a fresh
directory there, measures, and removes the inputs again. All progress goes
to stderr; stdout carries the measurement report, whose last line is the
JSON result. The exit code is the measurement's: non-zero when an output
check failed or the program could not be built or run.
"""

import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("paper-serve", "large-serve", "dense-analyze")
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def run(cmd, timeout, **kwargs):
    try:
        return subprocess.run(cmd, timeout=timeout, **kwargs).returncode
    except subprocess.TimeoutExpired:
        print(f"run.py: timed out after {timeout} s: {cmd[0]}", file=sys.stderr)
        return 124


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        print(f"run.py: {ROOT} holds no pme sources to build", file=sys.stderr)
        return 2

    out_root = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR")
                            or ".bench_build")
    build_dir = os.path.join(out_root, "cmake")
    binary = os.path.join(build_dir, "pipeline_bench")
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        code = run(["cmake", "-S", HERE, "-B", build_dir,
                    "-DCMAKE_BUILD_TYPE=Release"], BUILD_TIMEOUT_S,
                   stdout=sys.stderr)
        if code != 0:
            return code or 2
    code = run(["cmake", "--build", build_dir, "--target", "pipeline_bench",
                "-j", "4"], BUILD_TIMEOUT_S, stdout=sys.stderr)
    if code != 0:
        return code

    inputs = os.path.join(out_root, "inputs",
                          f"{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(inputs, exist_ok=True)
    try:
        common = [f"--workload={args.workload}", f"--seed={args.seed}"]
        code = run([binary, "generate", *common, f"--out={inputs}"],
                   RUN_TIMEOUT_S, stdout=sys.stderr)
        if code != 0:
            return code
        sys.stdout.flush()
        return run([binary, "measure", *common, f"--inputs={inputs}",
                    f"--seconds={args.seconds}", f"--trace={args.trace}"],
                   RUN_TIMEOUT_S)
    finally:
        shutil.rmtree(inputs, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
