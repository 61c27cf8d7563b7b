#!/usr/bin/env python3
"""Builds the benchmark program (Release) if needed, then runs one workload.

    python3 perfbench/run.py --workload <fleet1k|churn48|backbone_live> \
        --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. The build lives in perfbench/build/ and is
reused by later runs; its output goes to stderr so that the program's last
stdout line (the JSON result) stays last. The configuration is pinned: the
MIND_* variables that would change what the library does are removed from
the program's environment. With --trace 1 the recorded spans are written to
perfbench/build/spans/<workload>.csv.
"""
import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BUILD = os.path.join(HERE, "build")
PROGRAM = os.path.join(BUILD, "mind_perfbench")
PINNED_ENV = ("MIND_BACKEND", "MIND_BENCH_DUTY", "MIND_QUERY_DEBUG")
RUN_TIMEOUT_S = 170


def build():
    jobs = str(len(os.sched_getaffinity(0)))
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "--target", "mind_perfbench", "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            sys.exit("perfbench: build failed: " + " ".join(cmd))


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, choices=("0", "1"))
    args = ap.parse_args()

    build()
    cmd = [PROGRAM, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace]
    if args.trace == "1":
        spans_dir = os.path.join(BUILD, "spans")
        os.makedirs(spans_dir, exist_ok=True)
        cmd += ["--spans-out", os.path.join(spans_dir, args.workload + ".csv")]
    env = {k: v for k, v in os.environ.items() if k not in PINNED_ENV}
    sys.stdout.flush()
    try:
        proc = subprocess.run(cmd, env=env, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.exit("perfbench: run exceeded %d s" % RUN_TIMEOUT_S)
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()
