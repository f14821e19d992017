#!/bin/sh
# CI entry point: build, run the full tier-1 suite, the oracle property
# suites on fixed seeds, a reduced-seed chaos soak as a serving-layer smoke
# guard, the flat-vs-oracle scale guard up to n = 1000, then a short traced
# run of each end-to-end benchmark workload, whose replay byte-compares the
# library's answers with the daemon's and the CLI's. Every phase is
# wall-clock capped so a wedged daemon fails the run instead of hanging CI.
#
#   ./ci.sh            # what CI runs
#   CHAOS_SEEDS=200 ./ci.sh   # the full soak (what FIG=chaos defaults to)
set -eu
cd "$(dirname "$0")"

echo "== build =="
timeout 600 dune build

echo "== tests =="
timeout 900 dune runtest

# the Theorem 3 recurrence's property suites on twenty fixed seeds, so a
# last-ulp or cancellation regression fails CI deterministically instead of
# on one random seed per run (~15 s)
echo "== oracle properties (QCHECK_SEED=1..20) =="
(cd _build/default/test && timeout 120 sh -c '
  for seed in $(seq 1 20); do
    for t in test_replication test_evaluator test_flat_engine; do
      QCHECK_SEED=$seed ./$t.exe >"$t.seed.log" 2>&1 || {
        cat "$t.seed.log" >&2
        echo "$t failed at QCHECK_SEED=$seed" >&2
        exit 1
      }
    done
  done')

# the bench figures write their BENCH_*.json into the working directory:
# the reduced runs below go to a scratch directory so the committed files,
# written by the full campaigns, are left alone
bench="$(pwd)/_build/default/bench/main.exe"
scratch=$(mktemp -d)
trap 'rm -rf "$scratch"' EXIT

echo "== chaos smoke (reduced seeds) =="
(cd "$scratch" &&
  CHAOS_SEEDS="${CHAOS_SEEDS:-30}" FIG=chaos timeout 30 "$bench")

# searches report the flat kernel's own makespan: the scale guard fails if
# it strays more than 1e-12 from the oracle at any size up to n = 1000 (the
# serving sizes)
echo "== scale guard (flat vs oracle, n <= 1000) =="
(cd "$scratch" && SCALE_NMAX=1000 SCALE_EXACT_N=12 SCALE_DOMAINS=2 FIG=scale \
  timeout 120 "$bench")

echo "== benchmark byte checks (traced, 3 s per workload) =="
for w in serve-warm simulate-cold corpus-sweep; do
  last=$(timeout 300 sh wfcbench/run.sh --workload "$w" --seed 1 --seconds 3 \
    --trace 1 | tail -n 1)
  case "$last" in
  *'"correct": true'*'"failed": 0'*) echo "$w: ok" ;;
  *)
    echo "$w: FAILED: $last" >&2
    exit 1
    ;;
  esac
done

echo "ci: all green"
