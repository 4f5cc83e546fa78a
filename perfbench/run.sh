#!/usr/bin/env bash
# Build the benchmark and the daemon it drives from this checkout, then
# run one workload.  Arguments pass through to zbench (see README.md):
#   bash perfbench/run.sh --workload scale-cold --seed 1 --seconds 10 --trace 0
set -euo pipefail

if [ ! -f dune-project ] || [ ! -f bin/ziprtool.ml ] || [ ! -d lib ]; then
  echo "perfbench: run from the root of a zipr checkout (no dune-project, bin/ or lib/ here)" >&2
  exit 2
fi

# Build output goes to stderr: the last line of stdout is the result.
# The shared dune cache lives outside the checkout, so it stays off.
DUNE_CACHE=disabled dune build --root . ./perfbench/zbench.exe ./bin/ziprtool.exe 1>&2

exec ./_build/default/perfbench/zbench.exe --ziprtool ./_build/default/bin/ziprtool.exe "$@"
