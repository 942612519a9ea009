#!/usr/bin/env python3
"""Checks that the benchmark repeats: runs two independent sets of runs.

    python3 perfbench/steadiness.py

Each set runs every workload in BENCHMARK.json 10 times for its
run_seconds, each run with its own seed (the two sets use disjoint seeds).
For every end-to-end metric it prints each set's median and quartiles, the
spread (interquartile distance over the median), and whether the sets
agree: both spreads within the metric's bound from BENCHMARK.json, and the
two medians apart by no more than the bound in either direction. "steady"
additionally asks for spreads below a third of the bound. Exits 1 when any
metric disagrees. Run from the repository root.
"""

import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUNS = 10
SEED_BASE = 1000


def run_once(workload, seed, seconds):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        raise RuntimeError("%s seed %d failed (exit %d): %s" %
                           (workload, seed, out.returncode, out.stderr[-2000:]))
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"] != 0:
        raise RuntimeError("%s seed %d: incorrect result %s" % (workload, seed, lines[-1]))
    return {name: m["value"] for name, m in result["metrics"].items()}


def quartiles(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def worse(first, second, better):
    """How much worse `second` is than `first`, as a share of `first`;
    negative when `second` is better."""
    change = (second - first) / first
    return -change if better == "higher" else change


def main():
    spec = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))
    workloads = [w["name"] for w in spec["workloads"]]

    # sets[s][workload][metric] -> values
    sets = []
    for s in range(2):
        per_workload = {}
        for w in workloads:
            runs = []
            for i in range(RUNS):
                seed = SEED_BASE + 10000 * s + i
                runs.append(run_once(w, seed, spec["run_seconds"]))
                print("set %d %s seed %d done" % (s + 1, w, seed), file=sys.stderr, flush=True)
            per_workload[w] = {m: [r[m] for r in runs] for m in runs[0]}
        sets.append(per_workload)

    agree = True
    print("%-13s %-17s %5s  %-30s %-30s %6s %6s %s" %
          ("workload", "metric", "bound", "set 1 median [q1, q3]", "set 2 median [q1, q3]",
           "sprd1", "sprd2", "verdict"))
    for w in workloads:
        for metric in spec["end_to_end"]:
            name, bound, better = metric["name"], metric["bound"], metric["better"]
            stats = [quartiles(sets[s][w][name]) for s in range(2)]
            spreads = [(q3 - q1) / q2 for q1, q2, q3 in stats]
            drift = worse(stats[0][1], stats[1][1], better)
            ok = abs(drift) <= bound and max(spreads) <= bound
            steady = ok and max(spreads) < bound / 3
            agree &= ok
            cells = ["%.4g [%.4g, %.4g]" % (q2, q1, q3) for q1, q2, q3 in stats]
            print("%-13s %-17s %5.2f  %-30s %-30s %6.3f %6.3f %s (drift %+.3f)" %
                  (w, name, bound, cells[0], cells[1], spreads[0], spreads[1],
                   "steady" if steady else ("agree" if ok else "DISAGREE"), drift))
    return 0 if agree else 1


if __name__ == "__main__":
    sys.exit(main())
