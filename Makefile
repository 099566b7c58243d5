.PHONY: all build test bench bench-json bench-compare chaos-smoke mc-smoke recover-smoke transport-smoke par-smoke cycles-smoke scale-smoke reliability-smoke perf-smoke verify examples check clean doc

all: build

build:
	dune build @all

test:
	dune runtest

# Every experiment table (E1-E18); see EXPERIMENTS.md.
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

# One quick fixed-seed chaos run (partitions, crash+restart, bursts);
# exits non-zero if a safety or liveness oracle trips.  The cram test
# test/cram/chaos.t runs the same scenario under dune runtest.
chaos-smoke:
	dune exec bin/netobj_sim.exe -- chaos --seed 7

# Quick model-checking pass: exhaust the two-space transfer scenario
# within default bounds (must be clean), re-find the historical lookup
# agent-root leak with the bug flag re-enabled (must be found), and
# explore the fsync-vs-crash recovery schedules (must be clean).
# test/cram/mc.t runs the same scenarios under dune runtest.
mc-smoke:
	dune exec bin/netobj_sim.exe -- mc --scenario dgc2
	! dune exec bin/netobj_sim.exe -- mc --scenario lookup --leak
	dune exec bin/netobj_sim.exe -- mc --scenario recover --max-schedules 300

# Durable-space smoke: the scripted crash/recovery narrative (WAL
# replay, reassert reconciliation, post-recovery drain) under the two
# interesting disk faults, plus one seeded chaos run with crash+recover
# and armed disk faults in the schedule so the survival oracle fires.
# test/cram/recover.t runs the same scenarios under dune runtest.
recover-smoke:
	dune exec bin/netobj_sim.exe -- recover --disk-fault lost-suffix
	dune exec bin/netobj_sim.exe -- recover --disk-fault torn-tail
	dune exec bin/netobj_sim.exe -- chaos --seed 3 --crashes 1 \
	  --crash-recovers 2 --disk-faults 2 --partitions 2 \
	  --loss-bursts 2 --dup-bursts 1 --spikes 1

# Real-socket smoke: the loopback conformance suite (same scenario
# scripts against the simulated network and TCP, traces diffed) plus
# the cross-process serve/connect kill-and-recover narrative.  Seconds
# scale; skips gracefully where loopback is unavailable.
# test/cram/transport.t runs the same narrative under dune runtest.
transport-smoke:
	dune exec test/test_transport_conformance.exe
	dune exec bin/netobj_sim.exe -- transport-demo --seed 7

# Cycle-collection smoke: the deterministic three-space ring narrative
# (leak under the listing collector, reclaim under trial deletion), a
# seeded chaos run with the cycle workload and detector demon armed,
# and the model checker over the probe-vs-transfer race: the confirm
# round must keep it clean and dropping it (skip-confirm bug) must be
# caught.  test/cram/cycles.t pins the narrative under dune runtest.
cycles-smoke:
	dune exec bin/netobj_sim.exe -- cycles
	dune exec bin/netobj_sim.exe -- chaos --seed 11 --cycles 4
	dune exec bin/netobj_sim.exe -- mc --scenario dgc-cycle --max-schedules 1200
	! dune exec bin/netobj_sim.exe -- mc --scenario dgc-cycle-broken

# Lease-plane-at-scale smoke: the deterministic aggregated-lease
# narrative (incremental aggregates vs a from-scratch table fold,
# per-pair heartbeats over thousands of entries, whole-aggregate
# eviction on a crashed client, sharded agent homes) plus the
# dedicated unit/property suite for the same machinery.
# test/cram/scale.t pins the narrative under dune runtest.
scale-smoke:
	dune exec bin/netobj_sim.exe -- scale
	dune exec test/test_scale.exe

# Domain-parallel smoke: the multi-space invoke storm across a forced
# 4-domain pool (the default pool adapts to the host's core count and
# would collapse to one domain on small machines), checked by the
# safety oracle: every call accounted for, the paper's invariants hold
# at quiescence, dirty sets drain.
par-smoke:
	NETOBJ_DOMAINS_POOL=4 dune exec bin/netobj_sim.exe -- par --seed 7 --spaces 8 --domains 4 --calls 200

# Call-reliability smoke: the deterministic narrative (retry after a
# lost call, dedup after a lost reply, shedding under a herd, cancel
# releasing reply pins), the model checker over the retry/dedup race —
# the default config must exhaust clean and re-enabling the historical
# retry-without-dedup bug must find the double execution — and a
# seeded chaos run with call storms arming the plane.
# test/cram/reliability.t pins the narrative under dune runtest.
reliability-smoke:
	dune exec bin/netobj_sim.exe -- reliability
	dune exec bin/netobj_sim.exe -- mc --scenario call-retry
	! dune exec bin/netobj_sim.exe -- mc --scenario call-retry-no-dedup
	dune exec bin/netobj_sim.exe -- chaos --seed 3 --storms 2

# Call-benchmark smoke: a short traced run of the two TCP workloads that
# carry per-message cost.  Each must end with "correct": true, which
# covers the workload oracles, zero residue/dropped/reconnects, and the
# layer breakdown summing to the whole within 5%.
perf-smoke:
	@for w in null-tcp refs-tcp; do \
	  python3 perfbench/run.py --workload $$w --seed 1 --seconds 2 --trace 1 \
	    | tail -n 1 | grep -q '"correct": true' \
	    || { echo "perf-smoke: $$w not correct"; exit 1; }; \
	  echo "perf-smoke: $$w correct"; \
	done

# The full local gate: build everything, run the test suite (unit,
# property, cram), then the nine smoke targets.
verify: build test chaos-smoke mc-smoke recover-smoke transport-smoke par-smoke cycles-smoke scale-smoke reliability-smoke perf-smoke

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
