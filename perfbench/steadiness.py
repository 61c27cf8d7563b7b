#!/usr/bin/env python3
"""Steadiness report: runs workloads repeatedly and measures the spread.

    python3 perfbench/steadiness.py [--workloads fleet1k,churn48]
        [--runs 10] [--first-seed 1] [--seconds N] [--save FILE]
        [--against FILE]

Run from the repository root. Each run uses its own seed (first-seed,
first-seed + 1, ...). For every end-to-end metric of BENCHMARK.json it
prints the median and quartiles (Python's statistics.quantiles, n=4) of the
runs, and the spread — (q3 - q1) / median — next to the bound BENCHMARK.json
fixes for that metric. A spread above a third of its bound is flagged
"wide"; above the bound (setup_s excepted), the report exits 1.

--save writes the raw values as JSON; --against compares this set's medians
with a saved set and flags every metric whose median got worse by more than
its bound (exit 1).
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload, seed, seconds):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit("steadiness: %s seed %d failed (exit %d)" % (workload, seed, proc.returncode))
    result = json.loads(lines[-1])
    if not result["correct"]:
        sys.exit("steadiness: %s seed %d reported incorrect output" % (workload, seed))
    return {k: v["value"] for k, v in result["metrics"].items()}


def worse_by(metric, old, new):
    """Relative worsening of `new` against `old` (negative = better)."""
    if old == 0:
        return 0.0
    delta = (new - old) / old
    return delta if metric["better"] == "lower" else -delta


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=bench["run_seconds"])
    ap.add_argument("--save")
    ap.add_argument("--against")
    args = ap.parse_args()

    metrics = bench["end_to_end"]
    baseline = {}
    if args.against:
        with open(args.against) as f:
            baseline = json.load(f)
    values = {}
    bad = False
    for workload in args.workloads.split(","):
        runs = []
        for i in range(args.runs):
            runs.append(run_once(workload, args.first_seed + i, args.seconds))
            print("  %s seed %d done" % (workload, args.first_seed + i), file=sys.stderr)
        values[workload] = {m["name"]: [r[m["name"]] for r in runs] for m in metrics}
        print("%s (%d runs, %d s each)" % (workload, args.runs, args.seconds))
        print("  %-16s %14s %14s %14s %8s %6s" % ("metric", "q1", "median", "q3", "spread", "bound"))
        for m in metrics:
            v = values[workload][m["name"]]
            q1, med, q3 = statistics.quantiles(v, n=4) if len(v) > 1 else (v[0],) * 3
            spread = (q3 - q1) / med if med else 0.0
            flag = ""
            if spread > m["bound"] and m["name"] != "setup_s":
                flag, bad = "OVER", True
            elif spread > m["bound"] / 3:
                flag = "wide"
            if workload in baseline:
                drift = worse_by(m, statistics.median(baseline[workload][m["name"]]), med)
                flag += " drift %+.3f" % drift
                if drift > m["bound"]:
                    flag, bad = flag + " WORSE", True
            print("  %-16s %14.6g %14.6g %14.6g %8.4f %6.3f %s" % (
                m["name"], q1, med, q3, spread, m["bound"], flag))
    if args.save:
        with open(args.save, "w") as f:
            json.dump(values, f, indent=1)
    sys.exit(1 if bad else 0)


if __name__ == "__main__":
    main()
