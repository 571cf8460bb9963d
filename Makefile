# Developer/CI entry points. `make check` is the CI gate: build, full
# test suite, formatting check, and the fixed-seed smoke pass over the
# randomized suites.

DUNE ?= dune
# Fixed seed so the property/fuzz suites are reproducible in CI.
SMOKE_SEED ?= 42

.PHONY: all build test fmt fmt-check smoke trace-smoke server-smoke durable-smoke delta-smoke columnar-smoke rewrite-smoke perfbench-smoke bench-fast bench-cache check ci clean

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
# small preloaded graph and push the examples/ workload through it
# twice: request by request (with a server-side row budget set over
# the wire), then streamed through one pipelined connection. Assert
# STATS exposes the snapshot and plan-cache counters, then shut down
# gracefully and assert the server drained cleanly (exit 0, socket
# removed). The server and client run the built binaries directly: a
# background `dune exec` server would hold the dune lock and deadlock
# every client invocation. Finishes by regenerating BENCH_server.json
# (throughput + admission-overload records) through the fast bench
# path.
server-smoke: build
	@set -e; \
	SOCK="$${TMPDIR:-/tmp}/dbspinner-smoke-$$$$.sock"; \
	SERVER=./_build/default/bin/server_main.exe; \
	CLI=./_build/default/bin/dbspinner_cli.exe; \
	$$SERVER --socket "$$SOCK" --gen dblp-like --scale 0.1 --max-inflight 4 & \
	SERVER_PID=$$!; \
	trap 'kill $$SERVER_PID 2>/dev/null || true' EXIT; \
	for i in $$(seq 1 100); do [ -S "$$SOCK" ] && break; sleep 0.1; done; \
	[ -S "$$SOCK" ] || { echo "FAIL: server socket never appeared"; exit 1; }; \
	$$CLI client --socket "$$SOCK" -e "SET budget 2000000" examples/server_smoke.sql --stats; \
	OUT=$$($$CLI client --socket "$$SOCK" --pipeline examples/server_smoke.sql --stats); \
	echo "$$OUT" | tail -4; \
	echo "$$OUT" | grep -q "snapshot_version" || { echo "FAIL: no snapshot_version in STATS"; exit 1; }; \
	echo "$$OUT" | grep -q "plan_hits" || { echo "FAIL: no plan_hits in STATS"; exit 1; }; \
	$$CLI client --socket "$$SOCK" --shutdown; \
	wait $$SERVER_PID; \
	[ ! -S "$$SOCK" ] || { echo "FAIL: socket left behind after shutdown"; exit 1; }; \
	echo "server-smoke: clean shutdown"
	$(DUNE) exec bench/main.exe -- ext-server --fast --json BENCH_server.json

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

# Delta smoke: the semi-naive suite under a fixed seed (eligibility,
# first-iteration and empty-delta protocol, fallback on ineligible
# keys, stitching of partial updates, cross-executor agreement, and
# random iterative programs), every answer checked against the SSSP /
# friends-forecast reference implementations or a naive kv loop.
delta-smoke: build
	QCHECK_SEED=$(SMOKE_SEED) $(DUNE) exec test/test_delta.exe

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
# accounting, and the cost-guard decision flip). Its
# flip-preserves-semantics case also runs every statement of
# examples/demo.sql compiled with and without catalog statistics and
# requires identical output — arbitration may change plans, never
# answers.
rewrite-smoke: build
	QCHECK_SEED=$(SMOKE_SEED) $(DUNE) exec test/test_rules.exe

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

check: build test fmt-check smoke trace-smoke server-smoke durable-smoke delta-smoke columnar-smoke rewrite-smoke perfbench-smoke

# The minimal CI gate: compile, full test suite, formatting, the
# fixed-seed smoke pass (property, fuzz, fault, mpp, parallel and cache
# suites plus the seq-vs-parallel and cache on/off bench sections — the
# suites that drive both the single-node and the distributed backend of
# the step interpreter), trace smoke (NDJSON + bench-record validation
# with the fault path traced), the end-to-end server smoke (boot,
# sequential and pipelined workload, snapshot and plan-cache counters,
# graceful drain), the durability smoke (crash recovery + chaos harness), the delta smoke
# (semi-naive loops against reference oracles), and the columnar
# smoke (row vs vectorized equivalence + bench records), and the
# rewrite smoke (golden programs + reference-loop property +
# demo-script answers with and without statistics), and the benchmark smoke
# (oracle-checked answers from short frontier-sssp, paper-iterative and
# server-mixed runs).
ci: build test fmt-check smoke trace-smoke server-smoke durable-smoke delta-smoke columnar-smoke rewrite-smoke perfbench-smoke

clean:
	$(DUNE) clean
