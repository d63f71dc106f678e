#!/usr/bin/env python3
"""Builds the benchmark program from the checkout's sources and runs it.

Run from the root of a checkout:

    python3 perfbench/run.py --workload mixed_q70 --seed 1 --seconds 10 --trace 0

The build goes to .bench_build/perfbench (CMake, Release). Build output goes
to standard error; the program's standard output is passed through, so its
last line is the result object.
"""

import argparse
import os
import subprocess
import sys

WORKLOADS = ("mixed_q70", "transfer_q14", "reduce_cold")
RUN_TIMEOUT_S = 170


def build(root):
    here = os.path.join(root, "perfbench")
    if not (os.path.isfile(os.path.join(root, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(root, "src"))):
        sys.exit("perfbench: no library sources (CMakeLists.txt, src/) beside "
                 "perfbench/; run from the root of a full checkout")
    out = os.path.join(root, ".bench_build", "perfbench")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    for cmd in (["cmake", "-S", here, "-B", out, "-DCMAKE_BUILD_TYPE=Release"],
                ["cmake", "--build", out, "--target", "perfbench", "-j", jobs]):
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            sys.exit("perfbench: build failed: " + " ".join(cmd))
    return os.path.join(out, "perfbench")


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seed < 0 or args.seconds < 1:
        ap.error("--seed must be >= 0 and --seconds >= 1")

    exe = build(os.getcwd())
    sys.stdout.flush()
    try:
        proc = subprocess.run(
            [exe, "--workload", args.workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.exit("perfbench: run exceeded %d s" % RUN_TIMEOUT_S)
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()
