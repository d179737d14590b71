#!/bin/sh
# Build the benchmark from this checkout's sources, then run it with
# the given arguments (see benchmark/README.md).  Run from anywhere:
#
#   sh benchmark/run.sh --workload news-hot --seed 1 --seconds 15 --trace 0
#   sh benchmark/run.sh --seed 1          # every workload, combined result
set -eu
cd "$(dirname "$0")/.."
if [ ! -f dune-project ] || [ ! -d lib ] || [ ! -f benchmark/dune ]; then
  echo "benchmark/run.sh: no pdht source tree at $(pwd)" >&2
  exit 2
fi
# The shared dune cache lives outside the checkout; keep the build inside.
DUNE_CACHE=disabled dune build --root . --display quiet benchmark/main.exe >&2
exec ./_build/default/benchmark/main.exe "$@"
