#!/bin/sh
# Build the benchmark and the server binary from source, then run one
# workload from the root of the source tree:
#
#   sh perfbench/run.sh --workload NAME --seed N --seconds S --trace 0|1
#
# Build output goes to stderr, so the last line of standard output is
# the benchmark's JSON result.
set -eu
cd "$(dirname "$0")/.."

if ! command -v dune >/dev/null 2>&1; then
  if command -v opam >/dev/null 2>&1; then
    eval "$(opam env)"
  else
    for bin in "${OPAMROOT:-$HOME/.opam}"/*/bin; do
      [ -x "$bin/dune" ] && PATH="$bin:$PATH"
    done
  fi
fi

# The shared dune cache lives outside the tree; keep every build
# artefact inside it.
export DUNE_CACHE=disabled
dune build --root . ./perfbench/bench.exe ./bin/server_main.exe 1>&2
exec ./_build/default/perfbench/bench.exe "$@"
