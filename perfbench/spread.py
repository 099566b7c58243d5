#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics.

    python3 perfbench/spread.py [--workload W ...] [--runs 10] [--first-seed 1]
                                [--json OUT] [--against EARLIER.json]

runs `python3 perfbench/run.py` once per seed on each workload (seeds
first-seed .. first-seed+runs-1) and prints, per metric, the median and
the distance between the first and third quartile as a share of the
median, next to the metric's bound in BENCHMARK.json.  A spread above a
third of its bound is flagged; setup_s is reported but not flagged.
Every run must report correct=true with no failed op.  With --against,
each median is also compared with the median of an earlier --json file,
and a metric worse by more than its bound is flagged.
"""

import argparse
import json
import statistics
import subprocess
import sys


def main():
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", action="append")
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--first-seed", type=int, default=1)
    p.add_argument("--seconds", type=int)
    p.add_argument("--json", help="also write every run's metrics to this file")
    p.add_argument("--against", help="an earlier --json file to compare medians with")
    a = p.parse_args()
    manifest = json.load(open("BENCHMARK.json"))
    seconds = a.seconds or manifest["run_seconds"]
    workloads = a.workload or [w["name"] for w in manifest["workloads"]]
    bounds = {m["name"]: m["bound"] for m in manifest["end_to_end"]}
    lower = {m["name"]: m["better"] == "lower" for m in manifest["end_to_end"]}
    earlier = json.load(open(a.against)) if a.against else {}
    everything = {}
    ok = True
    for w in workloads:
        values = {name: [] for name in bounds}
        for seed in range(a.first_seed, a.first_seed + a.runs):
            out = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", w, "--seed", str(seed),
                 "--seconds", str(seconds), "--trace", "0"],
                stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
            if out.returncode != 0:
                print("%s seed %d: exit %d" % (w, seed, out.returncode))
                ok = False
                continue
            r = json.loads(out.stdout.strip().splitlines()[-1])
            if not r["correct"] or r["failed"]:
                print("%s seed %d: correct=%s failed=%d" % (w, seed, r["correct"], r["failed"]))
                ok = False
            for name in bounds:
                values[name].append(r["metrics"][name]["value"])
        everything[w] = values
        print("%s (%d runs, %d s)" % (w, len(values["setup_s"]), seconds))
        for name, vs in values.items():
            if len(vs) < 2:
                continue
            q1, med, q3 = statistics.quantiles(vs, n=4)
            spread = (q3 - q1) / med if med else float("inf")
            flag = "" if name == "setup_s" or spread <= bounds[name] / 3 else "  <-- above bound/3"
            if w in earlier and earlier[w].get(name):
                before = statistics.median(earlier[w][name])
                worse = (med / before - 1.0) if lower[name] else (1.0 - med / before)
                flag += "  vs earlier %+.3f" % worse
                if worse > bounds[name]:
                    flag += "  <-- worse than bound"
            print("  %-18s median %14.4f  spread %6.3f  bound %.2f%s" % (name, med, spread, bounds[name], flag))
            if "<--" in flag:
                ok = False
    if a.json:
        with open(a.json, "w") as f:
            json.dump(everything, f, indent=1)
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
