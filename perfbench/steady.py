#!/usr/bin/env python3
"""Steadiness check: two independent sets of runs, spreads against bounds.

    python3 perfbench/steady.py [--runs 10] [--sets 2] [--workloads a,b]
                                [--overhead]

Run from the repository root. For each set and workload it runs
`perfbench/run.py` once per seed at BENCHMARK.json's run_seconds (every
run a fresh process; set k uses seeds 1000k + 1, 1000k + 2, ...), then
reports for each end-to-end metric of BENCHMARK.json:

  * spread: (Q3 - Q1) / median of the set's values, with the quartiles of
    statistics.quantiles(values, n=4) — must stay within the metric's bound
    (target: a third of it). setup_s is exempt: it is gated on the shift
    of its median only, because a set-up takes tens of milliseconds and a
    whole run's set-ups move together with the machine's load;
  * shift: how much worse the second set's median is than the first's, as a
    share of the first — must stay within the bound for every metric.

With --overhead it also makes one traced run per workload and reports the
tracing overhead: each traced end-to-end value against the untraced median.
Exits 1 if any spread or shift exceeds its bound.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

FIRST_SEED = 1


def run_once(workload, seed, seconds, trace):
    command = [sys.executable, os.path.join("perfbench", "run.py"),
               "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(trace)]
    result = subprocess.run(command, stdout=subprocess.PIPE,
                            stderr=subprocess.DEVNULL, text=True, check=False)
    lines = result.stdout.strip().splitlines()
    if result.returncode != 0 or not lines:
        raise RuntimeError("%s seed %d failed (exit %d)"
                           % (workload, seed, result.returncode))
    traced = None
    for line in lines:
        if line.startswith("traced end_to_end: "):
            traced = json.loads(line[len("traced end_to_end: "):])
    return json.loads(lines[-1]), traced


def values(result):
    return {name: m["value"] for name, m in result["metrics"].items()}


def spread(xs):
    q1, q2, q3 = statistics.quantiles(xs, n=4)
    return (q3 - q1) / q2 if q2 else float("inf"), q2


def worse_by(first, second, better):
    """Share by which `second` is worse than `first` (negative = better)."""
    if first == 0:
        return 0.0
    change = (second - first) / abs(first)
    return change if better == "lower" else -change


def main():
    parser = argparse.ArgumentParser(description="Benchmark steadiness check.")
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--sets", type=int, default=2)
    parser.add_argument("--workloads", default="")
    parser.add_argument("--overhead", action="store_true")
    args = parser.parse_args()

    with open("BENCHMARK.json") as fh:
        spec = json.load(fh)
    seconds = spec["run_seconds"]
    workloads = ([w for w in args.workloads.split(",") if w] or
                 [w["name"] for w in spec["workloads"]])
    metrics = spec["end_to_end"]

    ok = True
    for workload in workloads:
        sets = []
        for s in range(args.sets):
            runs = []
            for i in range(args.runs):
                seed = FIRST_SEED + 1000 * s + i
                result, _ = run_once(workload, seed, seconds, 0)
                runs.append(values(result))
            sets.append(runs)
        print("== %s (%d sets x %d runs, %g s)" %
              (workload, args.sets, args.runs, seconds))
        print("%-26s %8s %12s %8s %8s" %
              ("metric", "bound", "median", "spread", "shift"))
        for m in metrics:
            name, bound = m["name"], m["bound"]
            medians, spreads = [], []
            for runs in sets:
                sp, med = spread([r[name] for r in runs])
                medians.append(med)
                spreads.append(sp)
            shift = max((worse_by(medians[0], med, m["better"])
                         for med in medians[1:]), default=0.0)
            bad = shift > bound or (name != "setup_s" and max(spreads) > bound)
            ok = ok and not bad
            print("%-26s %8.3f %12.6g %8.4f %8.4f %s" %
                  (name, bound, medians[0], max(spreads), shift,
                   "FAIL" if bad else ("ok" if max(spreads) <= bound / 3
                                       or name == "setup_s" else "wide")))
        if args.overhead:
            _, traced = run_once(workload, FIRST_SEED, seconds, 1)
            print("tracing overhead (traced run vs untraced median):")
            for m in metrics:
                name = m["name"]
                base = statistics.median(r[name] for r in sets[0])
                worse = worse_by(base, traced[name]["value"], m["better"])
                print("  %-26s %+8.2f%%" % (name, 100.0 * worse))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
