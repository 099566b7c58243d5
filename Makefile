.PHONY: all build test bench bench-baseline bench-compare perf-smoke verify examples check clean doc

all: build

build:
	dune build @all

test:
	dune runtest

# Every experiment table (E1-E25, E17 retired); see EXPERIMENTS.md.
bench:
	dune exec bench/main.exe

# The call benchmark's regression gate (BENCHMARK.json, perfbench/):
# bench-baseline records ten seeded runs of every workload into the
# committed BENCH_netobj.json; bench-compare reruns them and also flags
# any median worse than the baseline's by more than its bound.  Both
# exit 1 on an incorrect run or a spread above a third of its bound.
# The deterministic experiment tables are pinned in test/cram/bench.t.
bench-baseline:
	python3 perfbench/spread.py --json=BENCH_netobj.json

bench-compare:
	python3 perfbench/spread.py --against=BENCH_netobj.json

# The seeded chaos, model-checking, recovery, transport, cycle, scale,
# reliability and domain-parallel (a forced 4-domain pool) scenarios run
# under `dune runtest`: test/cram/*.t pins their output and exit codes,
# and the unit suites (test_transport_conformance, test_scale, ...) run
# alongside.  The smoke target below is what cram cannot express.

# Call-benchmark smoke: a short traced run of each TCP workload: the two
# that carry per-message cost, and bulk-tcp, the only one whose frames
# are larger than the 64 KiB gather buffer.  Each must end with
# "correct": true, which covers the workload oracles, zero
# residue/dropped/reconnects, and the layer breakdown summing to the
# whole within 5%.
perf-smoke:
	@for w in null-tcp refs-tcp bulk-tcp; do \
	  python3 perfbench/run.py --workload $$w --seed 1 --seconds 2 --trace 1 \
	    | tail -n 1 | grep -q '"correct": true' \
	    || { echo "perf-smoke: $$w not correct"; exit 1; }; \
	  echo "perf-smoke: $$w correct"; \
	done

# The full local gate: build everything, run the test suite (unit,
# property, cram), then the call-benchmark smoke.
verify: build test perf-smoke

examples:
	dune exec examples/quickstart.exe
	dune exec examples/chatroom.exe
	dune exec examples/workqueue.exe
	dune exec examples/termination.exe
	dune exec examples/cycles.exe

# Exhaustive model check of the collector (slow worlds included).
check:
	dune exec bin/netobj_sim.exe -- check -p 2 -b 3
	dune exec bin/netobj_sim.exe -- check -p 3 -b 2
	dune exec bin/netobj_sim.exe -- fifo -p 3 -b 2

doc:
	# requires odoc (opam install odoc)
	dune build @doc

clean:
	dune clean
