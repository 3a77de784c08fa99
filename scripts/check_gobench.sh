#!/usr/bin/env bash
# Paired go-benchmark comparison: PAIRS runs of the benchmarks matching
# PATTERN in package PKG on BASE_REF (default HEAD^) and on this tree,
# alternating which side runs first. Each side runs `-count COUNT`
# (default 1) at `-benchtime BENCHTIME` (default Go's 1s) per pair, so a
# few-percent difference can be given more samples and longer ones. Each
# side's test binary is built once. Per benchmark case it prints the
# median ns/op and B/op of both sides over every sample, and in how many
# pairs this tree's median was faster (ties count for neither side). It
# exits non-zero only when a run fails; judging the figures is left to
# the reader.
#
#   scripts/check_gobench.sh [-count N] [-benchtime T] [PAIRS] [BASE_REF] PKG PATTERN
#   scripts/check_gobench.sh 10 HEAD^ ./internal/sched 'Solve$|SolveCorpus'
#   scripts/check_gobench.sh -count 3 -benchtime 2s 6 HEAD^ ./internal/durable 'Load$'
set -euo pipefail
usage() {
  echo "usage: $0 [-count N] [-benchtime T] [PAIRS] [BASE_REF] PKG PATTERN" >&2
  exit 2
}
count=1
benchtime=1s
while (($# > 0)); do
  case "$1" in
  -count)
    (($# >= 2)) && [[ "$2" =~ ^[1-9][0-9]*$ ]] || usage
    count="$2"
    shift 2
    ;;
  -benchtime)
    (($# >= 2)) || usage
    benchtime="$2"
    shift 2
    ;;
  *) break ;;
  esac
done
if (($# < 2 || $# > 4)); then
  usage
fi
args=("$@")
pkg="${args[$# - 2]}"
pattern="${args[$# - 1]}"
pairs=10
base="HEAD^"
for a in "${args[@]:0:$# - 2}"; do
  if [[ "$a" =~ ^[0-9]+$ ]]; then pairs="$a"; else base="$a"; fi
done
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
out="$root/.bench_build/check_gobench"
rm -rf "$out" && mkdir -p "$out/parent"
# An export, not a worktree, as scripts/check_mark.sh makes it.
git archive "$base" | tar -x -C "$out/parent"

(cd "$out/parent" && go test -c -o "$out/parent.test" "$pkg")
go test -c -o "$out/head.test" "$pkg"

run() { # side tree
  (cd "$2/$pkg" && "$out/$1.test" -test.run '^$' -test.bench "$pattern" -test.benchmem \
    -test.count "$count" -test.benchtime "$benchtime" -test.timeout 30m) | awk -v pair="$i" '/^Benchmark/ {
      ns = ""; b = ""
      for (f = 3; f < NF; f++) {
        if ($(f + 1) == "ns/op") ns = $f
        if ($(f + 1) == "B/op") b = $f
      }
      print pair, $1, ns, b
    }' >>"$out/$1.txt"
  echo "pair $i $1 done" >&2
}
for ((i = 1; i <= pairs; i++)); do
  if ((i % 2)); then
    run parent "$out/parent"
    run head "$root"
  else
    run head "$root"
    run parent "$out/parent"
  fi
done

awk '
  function median(list,   n, v, k, t, a, b) {
    n = split(list, v, " ")
    for (a = 1; a <= n; a++)
      for (b = a + 1; b <= n; b++)
        if (v[b] + 0 < v[a] + 0) { t = v[a]; v[a] = v[b]; v[b] = t }
    return n % 2 ? v[(n + 1) / 2] : (v[n / 2] + v[n / 2 + 1]) / 2
  }
  FNR == 1 { side++ }
  {
    key = $2
    if (!(key in seen)) { seen[key] = 1; order[++cases] = key }
    ns[side, key] = ns[side, key] " " $3
    bytes[side, key] = bytes[side, key] " " $4
    pns[side, key, $1] = pns[side, key, $1] " " $3
  }
  END {
    printf "%-48s %14s %14s %12s %12s %6s\n", "case", "base ns/op", "tree ns/op", "base B/op", "tree B/op", "wins"
    for (c = 1; c <= cases; c++) {
      key = order[c]; wins = 0; n = 0
      for (p = 1; (1, key, p) in pns; p++) {
        if ((2, key, p) in pns) {
          n++
          if (median(pns[2, key, p]) + 0 < median(pns[1, key, p]) + 0) wins++
        }
      }
      printf "%-48s %14s %14s %12s %12s %3d/%-3d\n", key, median(ns[1, key]), median(ns[2, key]),
        median(bytes[1, key]), median(bytes[2, key]), wins, n
    }
  }' "$out/parent.txt" "$out/head.txt"
