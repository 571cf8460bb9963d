# Developer/CI entry points. `make check` is the CI gate: build, full
# test suite, formatting check, and the fixed-seed smoke pass over the
# randomized suites.

DUNE ?= dune
# Fixed seed so the property/fuzz suites are reproducible in CI.
SMOKE_SEED ?= 42

.PHONY: all build test fmt fmt-check smoke trace-smoke server-smoke delta-smoke columnar-smoke rewrite-smoke perfbench-smoke bench-fast check ci clean

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
# suites under a fixed seed. The deterministic suites (parallel, cache,
# fault, distributed) take no seed, so `make test` already covers them.
smoke: build
	QCHECK_SEED=$(SMOKE_SEED) $(DUNE) exec test/test_properties.exe
	QCHECK_SEED=$(SMOKE_SEED) $(DUNE) exec test/test_fuzz.exe

# Trace smoke: an end-to-end pass through the CLI (the observability
# suite itself runs under `make test`): run an iterative workload under
# --trace and validate the emitted NDJSON with `trace-check`.
trace-smoke: build
	$(DUNE) exec bin/dbspinner_cli.exe -- run --trace=trace_smoke.ndjson examples/trace_smoke.sql > /dev/null
	$(DUNE) exec bin/dbspinner_cli.exe -- trace-check trace_smoke.ndjson

# Server smoke: boot the concurrent server on a private socket with a
# small preloaded graph and push the examples/ workload through it
# twice: request by request (with a server-side row budget set over
# the wire), then streamed through one pipelined connection. Assert
# STATS exposes the snapshot and plan-cache counters, then shut down
# gracefully and assert the server drained cleanly (exit 0, socket
# removed). The server and client run the built binaries directly: a
# background `dune exec` server would hold the dune lock and deadlock
# every client invocation.
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
# frontier-sssp also runs traced: the traced path takes snapshots and
# forces every iteration's delta, and fails a statement whose answer
# differs from the untraced run's, so the index-served semi-naive path
# is checked against the untraced run as well as the oracle.
perfbench-smoke: build
	@set -e; \
	for RUN in frontier-sssp:0 frontier-sssp:1 paper-iterative:0 server-mixed:0; do \
	  WL=$${RUN%:*}; TRACE=$${RUN#*:}; \
	  OUT=$$(sh perfbench/run.sh --workload $$WL --seed 1 --seconds 3 --trace $$TRACE); \
	  LINE=$$(echo "$$OUT" | tail -1); \
	  echo "$$LINE"; \
	  echo "$$LINE" | grep -q '"correct": true' || { echo "FAIL: $$WL (trace $$TRACE) answers disagree with the oracle"; exit 1; }; \
	  echo "$$LINE" | grep -Eq '"failed": 0[,}]' || { echo "FAIL: $$WL (trace $$TRACE) reported failed operations"; exit 1; }; \
	  echo "perfbench-smoke: $$WL (trace $$TRACE) answers correct, no failures"; \
	done

bench-fast: build
	$(DUNE) exec bench/main.exe -- --fast

# The minimal CI gate: compile, full test suite, formatting, the
# fixed-seed smoke pass (property and fuzz suites), trace smoke (CLI
# --trace output validated by `trace-check`), the end-to-end server
# smoke (boot, sequential and pipelined workload, snapshot and
# plan-cache counters, graceful drain), the delta smoke (semi-naive
# loops against reference oracles), the columnar smoke (row vs
# vectorized equivalence + bench records), the rewrite smoke (golden
# programs + reference-loop property + demo-script answers with and
# without statistics), and the benchmark smoke (oracle-checked answers
# from short frontier-sssp, paper-iterative and server-mixed runs).
ci: build test fmt-check smoke trace-smoke server-smoke delta-smoke columnar-smoke rewrite-smoke perfbench-smoke

# The same gate under its older name: one prerequisite list, so the
# two cannot drift apart.
check: ci

clean:
	$(DUNE) clean
