.PHONY: all build test bench bench-baseline bench-compare bench-pairs perf-smoke verify chaos-sweep examples check clean doc

all: build

build:
	dune build @all

test:
	dune runtest

# Every experiment table (E1-E25, E16 and E17 retired); see EXPERIMENTS.md.
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

# A change against its parent: PAIRS alternating runs of WORKLOAD in the
# checkout at PARENT and in this one, the same seed within a pair
# (FIRST_SEED onwards).  Prints each end-to-end metric's medians and
# quartiles, the pairs the change won and a verdict (gain, worse,
# unresolved, same); exits 1 on an incorrect run or a "worse".
#   make bench-pairs PARENT=../parent WORKLOAD=bulk-tcp PAIRS=10
WORKLOAD ?= bulk-tcp
PAIRS ?= 10
FIRST_SEED ?= 1

bench-pairs:
	@test -n "$(PARENT)" || { echo "bench-pairs: set PARENT=<parent checkout>"; exit 2; }
	python3 bench/pairs.py --parent "$(PARENT)" --workload $(WORKLOAD) \
	  --pairs $(PAIRS) --first-seed $(FIRST_SEED)

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

# A wide chaos sweep, not part of `make test`: seeds 1-1000 of
# `netobj_sim chaos` under each of three fault profiles (durable
# crash-recover with storms and cycles; more crash-recovers over a
# longer run; storms, cycles and partitions).  Prints every FAIL line
# with its seed and profile and exits 1 on any failing run.  A run
# takes about 20 ms, so the 3,000 runs take about a minute.
CHAOS_PROFILES = \
  "--crash-recovers 2 --disk-faults 2 --cycles 4 --storms 2" \
  "--crash-recovers 3 --disk-faults 1 --duration 30" \
  "--storms 3 --cycles 4 --partitions 3"

chaos-sweep: build
	@sim=_build/default/bin/netobj_sim.exe; runs=0; failed=0; \
	for p in $(CHAOS_PROFILES); do \
	  for s in $$(seq 1 1000); do \
	    runs=$$((runs + 1)); \
	    if ! out=$$($$sim chaos --seed $$s $$p 2>&1); then \
	      failed=$$((failed + 1)); \
	      if echo "$$out" | grep -q '^FAIL'; then \
	        echo "$$out" | grep '^FAIL' | sed "s|^|seed=$$s [$$p] |"; \
	      else \
	        echo "seed=$$s [$$p] failed with no FAIL line"; \
	      fi; \
	    fi; \
	  done; \
	done; \
	echo "chaos-sweep: $$failed of $$runs runs failed"; \
	[ $$failed -eq 0 ]

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
