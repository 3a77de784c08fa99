#!/usr/bin/env bash
# cmifmark regression check: PAIRS paired runs of every BENCHMARK.json
# workload on BASE_REF (default HEAD^) and on this tree — the same seed on
# both sides of a pair, alternating which side runs first — judged by
# cmifnoise against the per-metric bounds. Exits non-zero on a bound
# breach or a failed run. cmifnoise needs PAIRS >= 2 to form quartiles;
# with 1 it prints "too few runs" (a smoke of the plumbing, not a
# verdict). About three minutes per pair on a 2-CPU host, so CI runs it
# nightly, not per push. Needs BASE_REF in history (CI: fetch-depth 0).
#
#   scripts/check_mark.sh [PAIRS] [BASE_REF]
set -euo pipefail
pairs="${1:-5}"
base="${2:-HEAD^}"
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
seconds="$(sed -n 's/.*"run_seconds": *\([0-9]*\).*/\1/p' BENCHMARK.json)"
out="$root/.bench_build/check_mark"
rm -rf "$out" && mkdir -p "$out/parent"
# An export, not a worktree: bench/run.sh builds from plain files and
# keeps its build cache inside the tree it runs in.
git archive "$base" | tar -x -C "$out/parent"

run() { # side tree workload seed
  local line
  line="$(bash "$2/bench/run.sh" --workload "$3" --seed "$4" --seconds "$seconds" --trace 0 2>>"$out/stderr.log" | tail -n 1)"
  printf '%s\t%s\n' "$3" "$line" >>"$out/$1.tsv"
  echo "pair $4 $1 $3 done" >&2
}
for ((i = 1; i <= pairs; i++)); do
  for w in view-media view-structure view-edge author-live; do
    if ((i % 2)); then
      run parent "$out/parent" "$w" "$i"
      run head "$root" "$w" "$i"
    else
      run head "$root" "$w" "$i"
      run parent "$out/parent" "$w" "$i"
    fi
  done
done

export GOCACHE="$root/.bench_build/gocache" GOFLAGS=-mod=mod GOTOOLCHAIN=local GOPROXY=off GOMODCACHE="$root/.bench_build/gomodcache"
go -C bench run ./cmd/cmifnoise -benchmark "$root/BENCHMARK.json" "$out/parent.tsv" "$out/head.tsv"
