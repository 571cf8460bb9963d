# Developer/CI entry points. `make check` is the CI gate: build, full
# test suite, formatting check, and the fixed-seed smoke pass over the
# randomized suites.

DUNE ?= dune
# Fixed seed so the property/fuzz suites are reproducible in CI.
SMOKE_SEED ?= 42

.PHONY: all build test fmt fmt-check smoke trace-smoke server-smoke mvcc-smoke durable-smoke delta-smoke columnar-smoke rewrite-smoke perfbench-smoke bench-fast bench-cache check ci clean

all: build

build:
	$(DUNE) build

test: build
	$(DUNE) runtest

fmt:
	@if command -v ocamlformat >/dev/null 2>&1; then \
	  $(DUNE) build @fmt --auto-promote; \
	else \
	  echo "SKIP fmt: ocamlformat is not installed"; \
	fi

# Fails when any file is not formatted. Gated on ocamlformat being
# installed so the target degrades to a no-op (with a notice) on
# machines without it rather than breaking the build.
fmt-check:
	@if command -v ocamlformat >/dev/null 2>&1; then \
	  $(DUNE) build @fmt && echo "formatting clean"; \
	else \
	  echo "SKIP fmt-check: ocamlformat is not installed"; \
	fi

# Quick reproducible confidence pass: the randomized property and fuzz
# suites under a fixed seed, the fault-injection/recovery suite and the
# Domain-pool parallel suite (both deterministic by construction —
# seeded fault plans, order-stable parallel merges), the executor-cache
# suite (cache-on vs cache-off equivalence), plus the fixed-seed
# seq-vs-parallel and cache on/off benchmark sections at workers=2.
# The cache bench writes BENCH_cache.json (cache_hits, improvement,
# results_equal per workload) for CI trend tracking.
smoke: build
	QCHECK_SEED=$(SMOKE_SEED) $(DUNE) exec test/test_properties.exe
	QCHECK_SEED=$(SMOKE_SEED) $(DUNE) exec test/test_fuzz.exe
	$(DUNE) exec test/test_fault.exe
	$(DUNE) exec test/test_mpp.exe
	QCHECK_SEED=$(SMOKE_SEED) $(DUNE) exec test/test_parallel.exe
	$(DUNE) exec test/test_cache.exe
	$(DUNE) exec bench/main.exe -- ext-parallel --fast
	$(DUNE) exec bench/main.exe -- ext-cache --fast --json BENCH_cache.json

# Trace smoke: the observability suite (ring buffer, NDJSON schema,
# cross-executor timeline agreement, and a faulted distributed run
# with tracing on), then an end-to-end pass: run an iterative workload
# under --trace, validate the emitted NDJSON with `trace-check`, and
# regenerate + validate BENCH_trace.json (trace on/off equivalence and
# per-iteration delta agreement across sequential / parallel /
# distributed execution).
trace-smoke: build
	$(DUNE) exec test/test_obs.exe
	$(DUNE) exec bin/dbspinner_cli.exe -- run --trace=trace_smoke.ndjson examples/trace_smoke.sql > /dev/null
	$(DUNE) exec bin/dbspinner_cli.exe -- trace-check trace_smoke.ndjson
	$(DUNE) exec bench/main.exe -- ext-trace --fast --json BENCH_trace.json
	$(DUNE) exec bin/dbspinner_cli.exe -- trace-check BENCH_trace.json

# Server smoke: boot the concurrent server on a private socket with a
# small preloaded graph, push the examples/ workload through the
# client (with a server-side row budget set over the wire), print the
# STATS counters, then shut down gracefully and assert the server
# drained cleanly (exit 0, socket removed). The server and client run
# the built binaries directly: a background `dune exec` server would
# hold the dune lock and deadlock every client invocation. Finishes by
# regenerating BENCH_server.json (throughput + admission-overload
# records) through the fast bench path.
server-smoke: build
	@set -e; \
	SOCK="$${TMPDIR:-/tmp}/dbspinner-smoke-$$$$.sock"; \
	SERVER=./_build/default/bin/server_main.exe; \
	CLI=./_build/default/bin/dbspinner_cli.exe; \
	$$SERVER --socket "$$SOCK" --gen dblp-like --scale 0.1 --max-inflight 4 & \
	SERVER_PID=$$!; \
	for i in $$(seq 1 100); do [ -S "$$SOCK" ] && break; sleep 0.1; done; \
	[ -S "$$SOCK" ] || { echo "FAIL: server socket never appeared"; kill $$SERVER_PID 2>/dev/null; exit 1; }; \
	$$CLI client --socket "$$SOCK" -e "SET budget 2000000" examples/server_smoke.sql --stats; \
	$$CLI client --socket "$$SOCK" --shutdown; \
	wait $$SERVER_PID; \
	[ ! -S "$$SOCK" ] || { echo "FAIL: socket left behind after shutdown"; exit 1; }; \
	echo "server-smoke: clean shutdown"
	$(DUNE) exec bench/main.exe -- ext-server --fast --json BENCH_server.json

# MVCC smoke: the protocol + mvcc suites (comment/quote-aware read-only
# classification, request-id tagging, writer handoff order, pinned
# snapshot isolation under concurrent DDL, plan-cache hit/staleness,
# pipelined response ordering), then an end-to-end pass: boot the
# server, stream the examples/ workload through one pipelined
# connection, assert STATS exposes the snapshot/plan-cache counters,
# and repeat against a --no-mvcc server to prove the single-RW-lock
# escape hatch still serves the same workload.
mvcc-smoke: build
	$(DUNE) exec test/test_server.exe -- test protocol
	$(DUNE) exec test/test_server.exe -- test mvcc
	@set -e; \
	SOCK="$${TMPDIR:-/tmp}/dbspinner-mvcc-smoke-$$$$.sock"; \
	SERVER=./_build/default/bin/server_main.exe; \
	CLI=./_build/default/bin/dbspinner_cli.exe; \
	for MODE in "" "--no-mvcc"; do \
	  $$SERVER --socket "$$SOCK" --gen dblp-like --scale 0.1 $$MODE & \
	  SERVER_PID=$$!; \
	  for i in $$(seq 1 100); do [ -S "$$SOCK" ] && break; sleep 0.1; done; \
	  [ -S "$$SOCK" ] || { echo "FAIL: server socket never appeared"; kill $$SERVER_PID 2>/dev/null; exit 1; }; \
	  OUT=$$($$CLI client --socket "$$SOCK" --pipeline examples/server_smoke.sql --stats); \
	  echo "$$OUT" | tail -4; \
	  if [ -z "$$MODE" ]; then \
	    echo "$$OUT" | grep -q "snapshot_version" || { echo "FAIL: no snapshot_version in STATS"; exit 1; }; \
	    echo "$$OUT" | grep -q "plan_hits" || { echo "FAIL: no plan_hits in STATS"; exit 1; }; \
	  fi; \
	  $$CLI client --socket "$$SOCK" --shutdown; \
	  wait $$SERVER_PID; \
	  [ ! -S "$$SOCK" ] || { echo "FAIL: socket left behind after shutdown"; exit 1; }; \
	  echo "mvcc-smoke: clean shutdown ($${MODE:-mvcc})"; \
	done

# Durability smoke: the full durable suite — framing/codec/snapshot/WAL
# units, recovery invariants (torn tails discarded, corruption refused,
# replay digests validated) and the chaos harness that SIGKILLs the
# real server binary at seeded points mid-DML / mid-iterative-query /
# mid-checkpoint and asserts recovery is bit-identical to a
# never-crashed oracle. Finishes with the fast durability bench
# (fsync-policy overhead + recovery time, BENCH_durable.json).
durable-smoke: build
	$(DUNE) exec test/test_durable.exe
	$(DUNE) exec bench/main.exe -- ext-durable --fast --json BENCH_durable.json

# Delta smoke: the semi-naive suite (eligibility, first-iteration and
# empty-delta protocol, fallback on ineligible keys, cross-executor
# agreement, and the delta-on vs delta-off property under a fixed
# seed), then the fast delta bench, which re-checks on/off equivalence
# across sequential / traced / parallel / cached / distributed runs
# and writes its records (per-iteration on/off timings for SSSP and
# friends-forecast) to the untracked BENCH_delta.smoke.json; the
# committed BENCH_delta.json holds the full-scale run.
delta-smoke: build
	QCHECK_SEED=$(SMOKE_SEED) $(DUNE) exec test/test_delta.exe
	$(DUNE) exec bench/main.exe -- ext-delta --fast --json BENCH_delta.smoke.json

# Columnar smoke: the vectorized-execution suite (null-bitmap corners,
# five-executor agreement, and the columnar on/off property under a
# fixed seed), then the fast columnar bench, which re-checks row vs
# columnar equivalence — results and logical stats — across the
# sequential / parallel / cached / delta / distributed executors and
# writes its records (row vs columnar timings and speedups per
# workload) to the untracked BENCH_columnar.smoke.json; the committed
# BENCH_columnar.json holds the full-scale run.
columnar-smoke: build
	QCHECK_SEED=$(SMOKE_SEED) $(DUNE) exec test/test_columnar.exe
	$(DUNE) exec bench/main.exe -- ext-columnar --fast --json BENCH_columnar.smoke.json

# Rewrite-engine smoke: the rule-combinator suite under a fixed seed
# (combinator laws, per-pass golden rule logs, golden compiled
# programs for the paper workloads, random iterative queries on all
# five executors checked against a naive reference loop, per-loop cost
# accounting, and the cost-guard decision flip), then an end-to-end
# pass: the demo script must print byte-identical results with
# cost-based rewrite arbitration on and off — arbitration may change
# plans, never answers.
rewrite-smoke: build
	QCHECK_SEED=$(SMOKE_SEED) $(DUNE) exec test/test_rules.exe
	$(DUNE) exec bin/dbspinner_cli.exe -- run examples/demo.sql > rewrite_smoke_on.out
	$(DUNE) exec bin/dbspinner_cli.exe -- run --no-cost-rewrites examples/demo.sql > rewrite_smoke_off.out
	cmp rewrite_smoke_on.out rewrite_smoke_off.out
	@rm -f rewrite_smoke_on.out rewrite_smoke_off.out
	@echo "rewrite-smoke: cost arbitration on/off outputs identical"

# Benchmark smoke: short frontier-sssp, paper-iterative and
# server-mixed runs of the repository benchmark (perfbench/). Every
# answer a run checks against its reference implementation must match,
# so a kernel change that breaks oracle answers fails CI even when the
# test suite misses it. paper-iterative covers PR, PR-VS and SSSP-VS,
# whose float SUMs are fed by join output order; server-mixed covers
# the server read path, whose short loops reuse join probes too.
perfbench-smoke: build
	@set -e; \
	for WL in frontier-sssp paper-iterative server-mixed; do \
	  OUT=$$(sh perfbench/run.sh --workload $$WL --seed 1 --seconds 3 --trace 0); \
	  LINE=$$(echo "$$OUT" | tail -1); \
	  echo "$$LINE"; \
	  echo "$$LINE" | grep -q '"correct": true' || { echo "FAIL: $$WL answers disagree with the oracle"; exit 1; }; \
	  echo "$$LINE" | grep -Eq '"failed": 0[,}]' || { echo "FAIL: $$WL reported failed operations"; exit 1; }; \
	  echo "perfbench-smoke: $$WL answers correct, no failures"; \
	done

bench-fast: build
	$(DUNE) exec bench/main.exe -- --fast

# Full cache on/off comparison (both worker counts, full iteration
# counts) with the machine-readable record file.
bench-cache: build
	$(DUNE) exec bench/main.exe -- ext-cache --json BENCH_cache.json

check: build test fmt-check smoke trace-smoke server-smoke mvcc-smoke durable-smoke delta-smoke columnar-smoke rewrite-smoke perfbench-smoke

# The minimal CI gate: compile, full test suite, formatting, the
# fixed-seed smoke pass (property, fuzz, fault, mpp, parallel and cache
# suites plus the seq-vs-parallel and cache on/off bench sections — the
# suites that drive both the single-node and the distributed backend of
# the step interpreter), trace smoke (NDJSON + bench-record validation
# with the fault path traced), the end-to-end server smoke (boot, workload, graceful drain), the
# durability smoke (crash recovery + chaos harness), the delta smoke
# (semi-naive on/off equivalence + bench records), and the columnar
# smoke (row vs vectorized equivalence + bench records), and the
# rewrite smoke (golden programs + reference-loop property +
# cost-arbitration on/off output equivalence), and the benchmark smoke
# (oracle-checked answers from short frontier-sssp, paper-iterative and
# server-mixed runs).
ci: build test fmt-check smoke trace-smoke server-smoke mvcc-smoke durable-smoke delta-smoke columnar-smoke rewrite-smoke perfbench-smoke

clean:
	$(DUNE) clean
