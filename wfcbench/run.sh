#!/bin/sh
# Build the wfc executable and the benchmark from source, then run the
# benchmark with the given arguments, from the root of a checkout:
#
#   sh wfcbench/run.sh --workload serve-warm --seed 1 --seconds 15 --trace 0
#
# Build output goes to stderr, so the last line of stdout stays the result.
set -eu
if [ ! -f dune-project ] || [ ! -d lib/serve ] || [ ! -f bin/wfc.ml ]; then
  echo "wfcbench: run from the root of a wfc checkout" >&2
  exit 2
fi
# The shared dune cache lives outside the checkout; build without it.
DUNE_CACHE=disabled dune build --root . -j 2 ./bin/wfc.exe ./wfcbench/main.exe 1>&2
exec ./_build/default/wfcbench/main.exe --wfc ./_build/default/bin/wfc.exe "$@"
