#!/usr/bin/env python3
"""Build and run the call benchmark from the root of a source checkout.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

builds perfbench/bench.exe with dune (inside the checkout's _build),
runs one measurement and prints its JSON result as the last line of
standard output.  --trace 0 reports the end-to-end metrics, --trace 1
the per-layer ones; the names must match BENCHMARK.json exactly.

    python3 perfbench/run.py --selftest

runs the attribution self-test instead (see selftest below).
"""

import argparse
import json
import os
import subprocess
import sys

EXE = os.path.join("_build", "default", "perfbench", "bench.exe")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170
# Files the benchmark needs besides its own: the program it measures.
SOURCES = ["dune-project", "lib/core/runtime.ml", "lib/transport/tcp.ml"]


def die(code, msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def env():
    e = dict(os.environ)
    # Keep dune from writing its shared cache outside the checkout.
    e["DUNE_CACHE"] = "disabled"
    return e


def build():
    missing = [f for f in SOURCES if not os.path.isfile(f)]
    if missing:
        die(2, "not at the root of a netobj checkout (missing %s)" % ", ".join(missing))
    try:
        r = subprocess.run(
            ["dune", "build", "--root", ".", "--display", "quiet", "./perfbench/bench.exe"],
            env=env(), stdout=sys.stderr, stderr=sys.stderr, timeout=BUILD_TIMEOUT_S)
    except FileNotFoundError:
        die(3, "dune not found")
    except subprocess.TimeoutExpired:
        die(3, "build timed out")
    if r.returncode != 0 or not os.path.isfile(EXE):
        die(3, "build failed")


def manifest():
    with open("BENCHMARK.json") as f:
        return json.load(f)


def measure(args, timeout=RUN_TIMEOUT_S):
    """Run bench.exe once; return the parsed result object."""
    cmd = [EXE] + args
    try:
        r = subprocess.run(cmd, env=env(), stdout=subprocess.PIPE, stderr=sys.stderr,
                           timeout=timeout, text=True)
    except subprocess.TimeoutExpired:
        die(4, "run timed out: " + " ".join(cmd))
    lines = r.stdout.strip().splitlines()
    if r.returncode != 0 or not lines:
        die(4, "run failed (exit %d): %s" % (r.returncode, " ".join(cmd)))
    for line in lines[:-1]:
        print(line)
    try:
        return json.loads(lines[-1])
    except ValueError:
        die(4, "unparsable result: " + lines[-1])


def check_names(result, trace):
    want = manifest()["per_layer" if trace else "end_to_end"]
    got = result["metrics"]
    names = [m["name"] for m in want]
    if sorted(got) != sorted(names):
        die(5, "metric set differs from BENCHMARK.json: extra %s, missing %s" % (
            sorted(set(got) - set(names)), sorted(set(names) - set(got))))
    for m in want:
        if got[m["name"]]["unit"] != m["unit"]:
            die(5, "unit of %s is %s, BENCHMARK.json says %s" % (
                m["name"], got[m["name"]]["unit"], m["unit"]))


def selftest(seed, seconds):
    """Attribution self-test.

    Injects a fixed busy-wait into the transport send decorator and checks
    that (1) transport.send_us_per_msg rises by the injected time while the
    other layers' self times hold, (2) null-tcp's ops_per_s falls by the
    injected time times the messages per op, and (3) ring-domains, which
    sends nothing through the decorator, does not move.
    """
    inject_ns = 20000
    inject_us = inject_ns / 1000.0
    base_args = ["--seed", str(seed), "--seconds", str(seconds)]

    def run(workload, trace, inject):
        extra = ["--inject-send-ns", str(inject)] if inject else []
        r = measure(["--workload", workload, "--trace", str(trace)] + base_args + extra)
        if not r["correct"]:
            die(6, "%s run was not correct" % workload)
        return {k: v["value"] for k, v in r["metrics"].items()}

    failures = []

    def expect(cond, what):
        print(("ok    " if cond else "FAIL  ") + what)
        if not cond:
            failures.append(what)

    # (1) per-layer attribution, traced null-tcp.
    base = run("null-tcp", 1, 0)
    inj = run("null-tcp", 1, inject_ns)
    rise = inj["transport.send_us_per_msg"] - base["transport.send_us_per_msg"]
    expect(abs(rise - inject_us) <= 0.1 * inject_us,
           "transport.send_us_per_msg rose by %.2f us (injected %.2f us)" % (rise, inject_us))
    for m in ["engine.run_self_us_per_op", "transport.pump_self_us_per_op",
              "runtime.recv_us_per_msg", "pickle.args_us_per_op", "stub.method_us_per_op"]:
        moved = inj[m] - base[m]
        expect(abs(moved) <= max(0.5, 0.25 * base[m]),
               "%s moved by %.2f us (from %.2f)" % (m, moved, base[m]))
    # (2) end to end: each op pays the injected time once per message sent.
    e2e_base = run("null-tcp", 0, 0)
    e2e_inj = run("null-tcp", 0, inject_ns)
    per_op_us = inject_us * (base["transport.msgs_per_op.call"] + base["transport.msgs_per_op.reply"])
    added = 1e6 / e2e_inj["ops_per_s"] - 1e6 / e2e_base["ops_per_s"]
    expect(abs(added - per_op_us) <= 0.25 * per_op_us,
           "null-tcp wall time per op rose by %.2f us (predicted %.2f us)" % (added, per_op_us))
    # (3) the ring has no decorated transport: the injection has nowhere to go.
    ring_base = run("ring-domains", 0, 0)
    ring_inj = run("ring-domains", 0, inject_ns)
    bound = next(m["bound"] for m in manifest()["end_to_end"] if m["name"] == "ops_per_s")
    change = ring_inj["ops_per_s"] / ring_base["ops_per_s"] - 1.0
    expect(abs(change) <= bound,
           "ring-domains ops_per_s changed by %+.1f%% (bound %.0f%%)" % (100 * change, 100 * bound))
    if failures:
        die(6, "self-test failed: %d check(s)" % len(failures))
    print("self-test passed")


def main():
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=10)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--trace-out", help="write the traced run's kept spans to this file")
    p.add_argument("--selftest", action="store_true", help="run the attribution self-test")
    a = p.parse_args()
    build()
    if a.selftest:
        selftest(a.seed, a.seconds)
        return
    if not a.workload:
        die(2, "--workload is required")
    args = ["--workload", a.workload, "--seed", str(a.seed),
            "--seconds", str(a.seconds), "--trace", str(a.trace)]
    if a.trace_out:
        args += ["--trace-out", a.trace_out]
    result = measure(args)
    check_names(result, a.trace)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
