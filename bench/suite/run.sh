#!/usr/bin/env bash
# Builds the benchmark and obda_server from source, then runs one
# workload. Run from the repository root:
#
#   bash bench/suite/run.sh --workload warm-100k --seed 1 --seconds 20 --trace 0
#
# Every argument goes to obda_bench (see README.md). The build uses no
# shared dune cache, so nothing is read or written outside the
# repository.
set -euo pipefail
dune build --root . --cache=disabled --display quiet \
  bench/suite/obda_bench.exe bin/obda_server.exe >&2
exec ./_build/default/bench/suite/obda_bench.exe \
  --server ./_build/default/bin/obda_server.exe "$@"
