#!/bin/sh
# Build the daemon and the benchmark from this checkout, then run the
# benchmark with the given arguments, e.g.
#   sh benchmark/run.sh --workload hot-cache --seed 1 --seconds 18 --trace 0
# Build output goes to stderr; standard output is the benchmark's report.
set -e
dune build --root . --cache=disabled ./bin/secpol_cli.exe ./benchmark/main.exe 1>&2
exec ./_build/default/benchmark/main.exe "$@"
