#!/usr/bin/env python3
"""Alternating parent/change pairs of the call benchmark.

    python3 bench/pairs.py --parent DIR [--workload W] [--pairs 10]
                           [--first-seed 1]

runs `python3 perfbench/run.py --trace 0` for BENCHMARK.json's
run_seconds in the checkout at DIR (the parent) and in this one (the
change), once each per pair, with the same seed within a pair (seeds
first-seed .. first-seed+pairs-1) and alternating which side runs
first.  For every end-to-end metric of
BENCHMARK.json it prints each side's median and quartiles, how many
pairs the change won (ties count for neither side) and a verdict:

  gain        the change won at least nine tenths of the pairs and the
              medians differ by more than the parent's interquartile range
  worse       the change's median is worse than the parent's by more than
              the metric's bound
  unresolved  neither, and the parent's interquartile range is wider than
              the bound, so "unchanged" cannot be told from noise
  same        neither, within the bound

Under the table, every metric whose verdict is not "same" gets one more
line: each pair's change/parent ratio in pair order, so a metric whose
runs fall into two modes reads as two clusters rather than one median.

Every run must report correct=true with no failed op; otherwise, or on
any "worse" verdict, the exit status is 1.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys


def run(tree, workload, seed, seconds):
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=tree, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
    if out.returncode != 0:
        sys.exit("pairs: %s seed %d failed with exit %d" % (tree, seed, out.returncode))
    return json.loads(out.stdout.strip().splitlines()[-1])


def quartiles(vs):
    if len(vs) < 2:
        return vs[0], vs[0], vs[0]
    return tuple(statistics.quantiles(vs, n=4))


def main():
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--parent", required=True, help="root of the parent checkout")
    p.add_argument("--workload", default="bulk-tcp")
    p.add_argument("--pairs", type=int, default=10)
    p.add_argument("--first-seed", type=int, default=1)
    a = p.parse_args()
    change = os.getcwd()
    parent = os.path.abspath(a.parent)
    manifest = json.load(open("BENCHMARK.json"))
    seconds = manifest["run_seconds"]
    metrics = manifest["end_to_end"]
    runs = {"parent": [], "change": []}
    ok = True
    for i in range(a.pairs):
        seed = a.first_seed + i
        order = [("parent", parent), ("change", change)]
        if i % 2:
            order.reverse()
        for side, tree in order:
            r = run(tree, a.workload, seed, seconds)
            if not r["correct"] or r["failed"]:
                print("%s seed %d: correct=%s failed=%d" % (side, seed, r["correct"], r["failed"]))
                ok = False
            runs[side].append({m["name"]: r["metrics"][m["name"]]["value"] for m in metrics})
        print("pair %d (seed %d, %s first) done" % (i + 1, seed, order[0][0]), file=sys.stderr)
    print("%s: %d pairs of %d s runs, parent %s" % (a.workload, a.pairs, seconds, parent))
    print("  %-16s %-32s %-32s %6s %6s  %s" % ("metric", "parent median [q1, q3]", "change median [q1, q3]",
                                             "ratio", "wins", "verdict"))
    ratios = []
    for m in metrics:
        name, bound, lower = m["name"], m["bound"], m["better"] == "lower"
        pv = [r[name] for r in runs["parent"]]
        cv = [r[name] for r in runs["change"]]
        pq1, pmed, pq3 = quartiles(pv)
        cq1, cmed, cq3 = quartiles(cv)
        better = (lambda c, p: c < p) if lower else (lambda c, p: c > p)
        wins = sum(1 for c, q in zip(cv, pv) if better(c, q))
        iqr = pq3 - pq1
        worse_by = ((cmed / pmed - 1.0) if lower else (1.0 - cmed / pmed)) if pmed else 0.0
        if wins * 10 >= 9 * a.pairs and better(cmed, pmed) and abs(cmed - pmed) > iqr:
            verdict = "gain"
        elif worse_by > bound:
            verdict = "worse"
            ok = False
        elif pmed and iqr / abs(pmed) > bound:
            verdict = "unresolved"
        else:
            verdict = "same"
        print("  %-16s %-32s %-32s %6.3f %3d/%-2d  %s" % (
            name, "%.4g [%.4g, %.4g]" % (pmed, pq1, pq3), "%.4g [%.4g, %.4g]" % (cmed, cq1, cq3),
            cmed / pmed if pmed else float("nan"), wins, a.pairs, verdict))
        if verdict != "same":
            ratios.append((name, [c / q if q else float("nan") for c, q in zip(cv, pv)]))
    for name, rs in ratios:
        print("  %-16s per pair: %s" % (name, " ".join("%.3f" % r for r in rs)))
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
