#!/usr/bin/env bash
# Runs every workload in two alternating sets (A, B) of RUNS runs each —
# A1 B1 A2 B2 ... — every run on its own seed, then prints per-metric
# medians, quartiles and spreads for each set and how much worse B's
# median is than A's, against the metric's bound. Exits non-zero on any
# breach. Both sets run the same code: the differences are the
# benchmark's own noise. The reference output is bench/NOISE.md.
#
#   bench/scripts/repeat.sh [RUNS] [SECONDS] > bench/NOISE.md
set -euo pipefail
runs="${1:-5}"
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/../.." && pwd)"
cd "$root"
seconds="${2:-$(sed -n 's/.*"run_seconds": *\([0-9]*\).*/\1/p' BENCHMARK.json)}"
out="$root/.bench_build/repeat"
rm -rf "$out" && mkdir -p "$out"
workloads=(view-media view-structure view-edge author-live)

echo "# cmifmark noise: two sets of $runs runs, same code"
echo
echo "\`bench/scripts/repeat.sh $runs $seconds\` on $(date -u +%Y-%m-%d), $(nproc) CPU, $(go version | cut -d' ' -f3),"
echo "load average at start $(cut -d' ' -f1-3 /proc/loadavg). Set A uses seeds 1..$runs, set B seeds $((runs + 1))..$((2 * runs));"
echo "runs alternate A1 B1 A2 B2 ... with the four workloads inside each."
echo "Spread is (q3 - q1) / median with Python's statistics.quantiles(n=4) cut points."

for ((i = 1; i <= runs; i++)); do
  for set in A B; do
    seed=$i
    [ "$set" = B ] && seed=$((runs + i))
    for w in "${workloads[@]}"; do
      line="$(bash bench/run.sh --workload "$w" --seed "$seed" --seconds "$seconds" --trace 0 2>>"$out/stderr.log" | tail -n 1)"
      printf '%s\t%s\n' "$w" "$line" >>"$out/$set.tsv"
      echo "run $i set $set $w seed $seed done" >&2
    done
  done
done

export GOCACHE="$root/.bench_build/gocache" GOFLAGS=-mod=mod GOTOOLCHAIN=local GOPROXY=off GOMODCACHE="$root/.bench_build/gomodcache"
go -C bench run ./cmd/cmifnoise -benchmark "$root/BENCHMARK.json" "$out/A.tsv" "$out/B.tsv"
