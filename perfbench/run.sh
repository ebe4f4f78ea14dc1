#!/bin/sh
# Build the benchmark and the asc CLI from this checkout, then run one
# workload (see perfbench/README.md):
#
#   sh perfbench/run.sh --workload oneshot-s1423 --seed 1 --seconds 20 --trace 0
#
# Build output goes to standard error; the last line of standard output
# is the run's JSON result.
set -e
cd "$(dirname "$0")/.."
command -v dune >/dev/null 2>&1 || eval "$(opam env 2>/dev/null)"
dune build --root . ./perfbench/main.exe ./bin/asc.exe 1>&2
exec ./_build/default/perfbench/main.exe "$@"
