#!/usr/bin/env bash
# Build the benchmark from the sources of this checkout and run one workload.
#
#   bash perfbench/run.sh --workload NAME --seed N --seconds S --trace 0|1
#
# Build output goes to standard error, so the last line of standard output
# is the benchmark's JSON result.
set -euo pipefail
cd "$(dirname "$0")/.."
if [ ! -f dune-project ] || [ ! -d lib ]; then
  echo "perfbench: no program sources next to the benchmark (dune-project, lib/)" >&2
  exit 2
fi
export DUNE_CACHE=disabled
dune build --root . ./perfbench/main.exe 1>&2
exec ./_build/default/perfbench/main.exe "$@"
