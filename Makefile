.PHONY: all build test bench bench-json bench-compare par-smoke perf-smoke verify examples check clean doc

all: build

build:
	dune build @all

test:
	dune runtest

# Every experiment table (E1-E25, E17 retired); see EXPERIMENTS.md.
bench:
	dune exec bench/main.exe

# Same, plus a machine-readable per-experiment metrics dump.
bench-json:
	dune exec bench/main.exe -- --json BENCH_netobj.json

# Re-run the bench and diff CPU times against the committed baseline;
# fails on a >20% regression in any experiment above the noise floor.
bench-compare:
	dune exec bench/main.exe -- --json /tmp/bench_current.json
	dune exec tools/bench_compare.exe -- BENCH_netobj.json /tmp/bench_current.json

# The seeded chaos, model-checking, recovery, transport, cycle, scale
# and reliability scenarios run under `dune runtest`: test/cram/*.t pins
# their output and exit codes, and the unit suites (test_transport_
# conformance, test_scale, ...) run alongside.  The two smoke targets
# below are what cram cannot express.

# Domain-parallel smoke: the multi-space invoke storm across a forced
# 4-domain pool (the default pool adapts to the host's core count and
# would collapse to one domain on small machines), checked by the
# safety oracle: every call accounted for, the paper's invariants hold
# at quiescence, dirty sets drain.
par-smoke:
	NETOBJ_DOMAINS_POOL=4 dune exec bin/netobj_sim.exe -- par --seed 7 --spaces 8 --domains 4 --calls 200

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
# property, cram), then the two smoke targets.
verify: build test par-smoke perf-smoke

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
