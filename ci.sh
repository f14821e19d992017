#!/bin/sh
# CI entry point: build, check that lib/ and bin/ keep one search path,
# run the full tier-1 suite, the oracle property suites on fixed seeds, a
# reduced-seed chaos soak as a serving-layer smoke guard, the
# flat-vs-oracle scale guard up to n = 1000, the risk-aware selection
# figures against their committed JSON, then a short traced run of
# each end-to-end benchmark workload, whose replay byte-compares the
# library's answers with the daemon's and the CLI's (and whose serve-warm
# line must show at most 1 MB of minor heap per request). Every phase is
# wall-clock capped so a wedged daemon fails the run instead of hanging CI.
#
#   ./ci.sh            # what CI runs
#   CHAOS_SEEDS=200 ./ci.sh   # the full soak (what FIG=chaos defaults to)
set -eu
cd "$(dirname "$0")"

echo "== build =="
timeout 600 dune build

# one production path: searches run on the flat kernel, replicated
# schedules included, and the Evaluator oracle checks that path from the
# tests instead of being a second one. So lib/ and bin/ name no Naive
# backend, and no code there (comments excluded) calls Evaluator outside the
# oracle modules Brute_force and Bounds, or the Theorem 3 recurrence
# (Replication.recurrence, evaluate, expected_makespan) outside Replication
# and Evaluator.
echo "== one production path =="
stray=$(grep -rln 'Naive' lib bin || true)
oracle='Evaluator\.'
recurrence='Replication\.(recurrence|evaluate|expected_makespan)\b'
for f in $(find lib bin -name '*.ml' -o -name '*.mli' | sort); do
  case "$f" in
  lib/core/brute_force.ml | lib/core/bounds.ml) calls=$recurrence ;;
  lib/core/replication.ml | lib/core/evaluator.ml) calls=$oracle ;;
  *) calls="$oracle|$recurrence" ;;
  esac
  CALLS=$calls perl -0777 -ne \
    's/\(\*(?:(?>[^(*]+)|\((?!\*)|\*(?!\))|(?R))*\*\)//g;
    exit(/\b(?:$ENV{CALLS})/ ? 0 : 1)' "$f" && stray="$stray $f"
done
if [ -n "$stray" ]; then
  echo "a second search path in:" $stray >&2
  exit 1
fi
echo "ok"

echo "== tests =="
timeout 900 dune runtest

# the Theorem 3 recurrence's property suites, the simulator's
# executor-vs-reference properties, risk-aware selection's live-vs-replayed
# property, the adaptive executor's properties, and the serving layer's
# request-history and caller's-engine properties, on twenty fixed seeds, so
# a last-ulp, cancellation, draw-order or engine-binding regression fails CI
# deterministically instead of on one random seed per run (~45 s)
echo "== oracle properties (QCHECK_SEED=1..20) =="
(cd _build/default/test && timeout 120 sh -c '
  for seed in $(seq 1 20); do
    for t in test_replication test_evaluator test_flat_engine \
      test_simulator test_sim_faults test_trace_io test_serve \
      test_exact_solver test_resilience test_adaptive; do
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

# risk-aware selection runs every candidate on the same seeded failure
# lanes: the adaptive-vs-static and checkpoint-vs-replica figures (each with
# its own PASS/FAIL guard) must reproduce their committed JSON byte for byte
echo "== selection figures (FIG=adaptive, FIG=replication) =="
for fig in adaptive replication; do
  (cd "$scratch" && FIG=$fig timeout 60 "$bench" >"$fig.log" 2>&1) || {
    cat "$scratch/$fig.log" >&2
    echo "FIG=$fig failed" >&2
    exit 1
  }
  cmp "BENCH_$fig.json" "$scratch/BENCH_$fig.json"
done
echo "ok"

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
  # a warm hit re-derives nothing (no DAG generation, linearization or
  # fingerprint on the hit path): serve-warm's in-process Server.handle
  # stays under 1 MB of minor heap per request
  if [ "$w" = serve-warm ]; then
    mb=$(printf '%s\n' "$last" |
      sed -n 's/.*"gc\.minor_mb_per_req": {"value": \([-0-9.eE+]*\).*/\1/p')
    if [ -z "$mb" ] || awk -v mb="$mb" 'BEGIN { exit !(mb > 1) }'; then
      echo "serve-warm: gc.minor_mb_per_req = ${mb:-missing}, above 1 MB" >&2
      exit 1
    fi
    echo "serve-warm: gc.minor_mb_per_req = $mb MB"
  fi
done

echo "ci: all green"
