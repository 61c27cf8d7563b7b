#!/usr/bin/env python3
"""Diff BENCH_*.json exports against committed baselines.

Usage:
    tools/check_bench_regression.py --baseline-dir bench/baselines [--current-dir .]
                                    [--threshold 0.15] [--wall-threshold 0.5]
                                    [--update] [FILE ...]

Two file shapes are understood:

  * registry exports (docs/BENCH_SCHEMA.md): gauges with `_per_sec` /
    `speedup*` components are higher-is-better throughput, `wall_seconds` /
    `wall_ms` gauges are lower-is-better elapsed time;
  * google-benchmark `--benchmark_format=json` dumps (BENCH_micro.json):
    each benchmark's `cpu_time` is lower-is-better.

Sim-derived throughput (gauge names containing `_per_sec_sim`) is a pure
function of the seed, so it compares machine-to-machine exactly; a drop
beyond --threshold (default 15%) FAILS the check. Wall-clock-derived
metrics (everything else above, including micro-bench cpu_time) vary with
the host and its load, so they use the looser --wall-threshold (default
50%) — tight enough to catch a pathological regression, loose enough not
to flag a different machine. Run on the same quiet box as the baseline
you can drop --wall-threshold to 0.15 for a true like-for-like gate.

Non-throughput gauges and counters in registry exports are deterministic
per seed; drift there is a behaviour change, not a perf regression, and is
reported as a warning only (the determinism probes and tier-1 tests own
that contract). fig22's `link_table_kb_per_node` gauges are of this kind:
the link table's slot capacity is a function of the seed.

Comparisons are skipped with a note (never a failure) when the baseline
file or metric is missing, when the two registry exports disagree on
`run.build_type`, or when the baseline value is zero.

`--update` copies the current files over the baselines instead of
comparing — run it after an intentional perf change and commit the result.
"""

import argparse
import json
import os
import shutil
import sys

GLOB_PREFIX = "BENCH_"
GLOB_SUFFIX = ".json"


def is_throughput_key(name):
    """Higher-is-better rate metrics."""
    parts = name.split(".")
    return "_per_sec" in name or any(p.startswith("speedup") for p in parts)


def is_walltime_key(name):
    """Lower-is-better elapsed-time metrics."""
    return "wall_seconds" in name or "wall_ms" in name


def is_sim_derived(name):
    """Throughput computed from sim time: deterministic per seed."""
    return "_per_sec_sim" in name


def is_host_memory_key(name):
    """Lower-is-better resident-set / live-heap / pool-footprint gauges.
    Byte-exact values depend on the host allocator and page cache, so they
    get the looser wall band instead of the deterministic-drift warning."""
    return ("rss_per_node_kb" in name
            or "live_heap_kb_per_node" in name
            or (name.startswith("memory.pool.") and name.endswith("_bytes")))


def is_gated_elsewhere(name):
    """Growth gauges the checker only notes. fig22 gates live-heap growth
    itself, in absolute kB per node (it exits 1 above its band), and reports
    its RSS growth percentage ungated. A relative comparison of two small
    growth figures is pure noise."""
    return ("live_heap_growth_kb_per_node" in name
            or "rss_growth_pct" in name)


def load(path):
    with open(path, "r", encoding="utf-8") as f:
        return json.load(f)


def bench_files(directory):
    out = {}
    for entry in sorted(os.listdir(directory)):
        if entry.startswith(GLOB_PREFIX) and entry.endswith(GLOB_SUFFIX):
            out[entry] = os.path.join(directory, entry)
    return out


def check_drop(name, key, base_val, cur_val, threshold, failures, notes):
    """Higher-is-better comparison."""
    if base_val <= 0:
        notes.append(f"{name}: {key} baseline is {base_val}; skipped")
        return
    drop = (base_val - cur_val) / base_val
    if drop > threshold:
        failures.append(
            f"{name}: {key} fell {drop * 100:.1f}% "
            f"({base_val:g} -> {cur_val:g}, threshold {threshold * 100:.0f}%)")


def check_rise(name, key, base_val, cur_val, threshold, failures, notes):
    """Lower-is-better comparison."""
    if base_val <= 0:
        notes.append(f"{name}: {key} baseline is {base_val}; skipped")
        return
    rise = (cur_val - base_val) / base_val
    if rise > threshold:
        failures.append(
            f"{name}: {key} rose {rise * 100:.1f}% "
            f"({base_val:g} -> {cur_val:g}, threshold {threshold * 100:.0f}%)")


def compare_gbench(name, baseline, current, wall_threshold):
    """google-benchmark JSON: per-benchmark cpu_time, lower is better."""
    failures, warnings, notes = [], [], []
    base_times = {b["name"]: b.get("cpu_time", 0.0)
                  for b in baseline.get("benchmarks", [])
                  if b.get("run_type", "iteration") == "iteration"}
    cur_times = {b["name"]: b.get("cpu_time", 0.0)
                 for b in current.get("benchmarks", [])
                 if b.get("run_type", "iteration") == "iteration"}
    for key, base_val in sorted(base_times.items()):
        if key not in cur_times:
            warnings.append(f"{name}: benchmark {key} missing from current run")
            continue
        check_rise(name, key, base_val, cur_times[key], wall_threshold,
                   failures, notes)
    return failures, warnings, notes


def compare_registry(name, baseline, current, threshold, wall_threshold):
    """Registry export (docs/BENCH_SCHEMA.md)."""
    failures, warnings, notes = [], [], []

    base_build = baseline.get("run", {}).get("build_type", "")
    cur_build = current.get("run", {}).get("build_type", "")
    if base_build != cur_build:
        notes.append(
            f"{name}: build_type {cur_build!r} != baseline {base_build!r}; "
            "skipping (not comparable)")
        return failures, warnings, notes

    base_gauges = baseline.get("gauges", {})
    cur_gauges = current.get("gauges", {})
    for key, base_val in sorted(base_gauges.items()):
        if key not in cur_gauges:
            warnings.append(f"{name}: gauge {key} missing from current run")
            continue
        cur_val = cur_gauges[key]
        if is_throughput_key(key):
            limit = threshold if is_sim_derived(key) else wall_threshold
            check_drop(name, key, base_val, cur_val, limit, failures, notes)
        elif is_walltime_key(key) or is_host_memory_key(key):
            check_rise(name, key, base_val, cur_val, wall_threshold,
                       failures, notes)
        elif is_gated_elsewhere(key):
            if cur_val != base_val:
                notes.append(f"{name}: {key} {base_val:g} -> {cur_val:g} "
                             "(informational; not compared)")
        elif cur_val != base_val:
            warnings.append(
                f"{name}: deterministic gauge {key} drifted "
                f"({base_val:g} -> {cur_val:g})")

    base_counters = baseline.get("counters", {})
    cur_counters = current.get("counters", {})
    for key, base_val in sorted(base_counters.items()):
        if key in cur_counters and cur_counters[key] != base_val:
            warnings.append(
                f"{name}: counter {key} drifted "
                f"({base_val:g} -> {cur_counters[key]:g})")
    return failures, warnings, notes


def compare_file(name, baseline, current, threshold, wall_threshold):
    if "benchmarks" in baseline or "benchmarks" in current:
        return compare_gbench(name, baseline, current, wall_threshold)
    return compare_registry(name, baseline, current, threshold, wall_threshold)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--baseline-dir", default="bench/baselines")
    ap.add_argument("--current-dir", default=".")
    ap.add_argument("--threshold", type=float, default=0.15,
                    help="tolerance for sim-derived throughput (default 0.15)")
    ap.add_argument("--wall-threshold", type=float, default=0.5,
                    help="tolerance for wall-clock metrics (default 0.5)")
    ap.add_argument("--update", action="store_true",
                    help="copy current exports over the baselines and exit")
    ap.add_argument("files", nargs="*",
                    help="restrict to these BENCH_*.json basenames")
    args = ap.parse_args()

    current = bench_files(args.current_dir)
    if args.files:
        wanted = {os.path.basename(f) for f in args.files}
        current = {k: v for k, v in current.items() if k in wanted}
    if not current:
        print("check_bench_regression: no BENCH_*.json files in "
              f"{args.current_dir!r}; nothing to do")
        return 0

    if args.update:
        os.makedirs(args.baseline_dir, exist_ok=True)
        for name, path in current.items():
            shutil.copyfile(path, os.path.join(args.baseline_dir, name))
            print(f"updated {os.path.join(args.baseline_dir, name)}")
        return 0

    if not os.path.isdir(args.baseline_dir):
        print(f"check_bench_regression: baseline dir {args.baseline_dir!r} "
              "does not exist; nothing to compare (run with --update to seed)")
        return 0

    baselines = bench_files(args.baseline_dir)
    all_failures, all_warnings = [], []
    compared = 0
    for name, path in current.items():
        if name not in baselines:
            print(f"note: {name} has no baseline; skipped")
            continue
        failures, warnings, notes = compare_file(
            name, load(baselines[name]), load(path),
            args.threshold, args.wall_threshold)
        compared += 1
        for n in notes:
            print(f"note: {n}")
        all_failures.extend(failures)
        all_warnings.extend(warnings)

    for w in all_warnings:
        print(f"WARNING: {w}")
    for f in all_failures:
        print(f"FAIL: {f}")
    print(f"check_bench_regression: compared {compared} file(s), "
          f"{len(all_failures)} failure(s), {len(all_warnings)} warning(s)")
    return 1 if all_failures else 0


if __name__ == "__main__":
    sys.exit(main())
