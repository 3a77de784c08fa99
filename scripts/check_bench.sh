#!/bin/sh
# Bench-regression gate: run cmifbench's S1 (store), S2 (scheduler),
# S4 (durability), S6 (live-document fan-out), S7 (edge tier) and S9
# (wire saturation: dedupe + compression) scenarios plus cmifsoak's S5
# (production soak) in quick smoke mode and validate both the fresh
# results and the committed BENCH_store.json / BENCH_sched.json /
# BENCH_durable.json / BENCH_soak.json / BENCH_subs.json /
# BENCH_edge.json / BENCH_wire2.json reference files against the
# regression invariants:
#
#   - wire-call arithmetic (per-block == one round trip per fetch, batched
#     at least 8x fewer, warm never more than cold);
#   - schedule equality across the single, parallel and incremental solver
#     paths, one component per arm, one component re-solved per leaf edit;
#   - allocation ratios (incremental reschedule allocates ≤ 1/4 of a full
#     rebuild per edit);
#   - relative-throughput floors with machine tolerances, and the committed
#     headline speedups (warm-batched ≥ 4x; incremental reschedule ≥ 10x;
#     component-parallel ≥ 2x whenever the committed run recorded
#     GOMAXPROCS ≥ 4);
#   - the durability invariants: recovery restores 100% of the corpus
#     byte-for-byte (names, content addresses, payloads), write
#     amplification stays within the record format's ceiling, sync=never
#     out-runs sync=always, and WAL replay beats wire re-ingest (≥ 10x in
#     the committed reference under sync=never);
#   - the soak invariants: every steady traffic class ran error-free
#     within its latency SLO, the deliberate overload flood was shed via
#     busy errors while admitted requests stayed within the tail budget,
#     and the live /metrics endpoint corroborated the client-side counts
#     (the committed BENCH_soak.json must record ≥ 30 s of steady
#     traffic at GOMAXPROCS ≥ 4);
#   - the subscription invariants: every watcher received exactly
#     subscribers x edits delta pushes with zero resyncs and converged
#     byte-for-byte on the authoritative document, and delta push
#     out-ran poll-refetch (≥ 5x at ≥ 1000 subscribers in the committed
#     reference, which must also record GOMAXPROCS ≥ 4 — parallel
#     speedup floors are meaningless on a single-core record, and the
#     gate rejects committed files that claim otherwise);
#   - the edge-tier invariants: warm edges offload ≥ 90% of reads from
#     the origin, and the committed BENCH_edge.json records ≥ 1000
#     clients behind ≥ 4 edges whose p99 does not exceed the
#     direct-to-origin p99, at GOMAXPROCS ≥ 4;
#   - the wire-saturation invariants (S9): bytes-on-wire arithmetic is
#     exact against the dedupe/compression counters (plain receives at
#     least the payload bytes, dedupe's received+saved covers the
#     payload, every warm dedupe fetch is manifest-assembled, compressed
#     text moves fewer bytes than it delivers), and the committed
#     BENCH_wire2.json records ≥ 2x warm dedupe throughput over the
#     plain-v3 path, ≥ 5x bytes-on-wire reduction on the dup-heavy
#     corpus and ≥ 2x on compressible text, at GOMAXPROCS ≥ 4.
#
# Fresh results land in $BENCH_DIR (default: a temp dir) so CI can upload
# them as an artifact. Run from the repository root: ./scripts/check_bench.sh
set -eu

cleanup=""
if [ "${BENCH_DIR:-}" = "" ]; then
    BENCH_DIR=$(mktemp -d)
    cleanup="$BENCH_DIR"
fi
mkdir -p "$BENCH_DIR"
trap '[ -n "$cleanup" ] && rm -rf "$cleanup"' EXIT

# The committed sched (S2), soak (S5), subs (S6) and edge (S7)
# references carry concurrency headlines, so their gates require a
# record captured at GOMAXPROCS >= 4 — parallel-speedup and tail-latency
# floors recorded on a single core prove nothing. A box that cannot
# provide that environment cannot validate (or regenerate) those
# references, so the gate refuses to run rather than bless a result it
# could not have measured. Print each reference's recorded BenchEnv so
# the offending record is visible in the failure output.
procs="${GOMAXPROCS:-$(nproc 2>/dev/null || echo 0)}"
if [ "$procs" -lt 4 ]; then
    echo "error: GOMAXPROCS=$procs < 4; the S2/S5/S6/S7/S9 concurrency gates require >= 4 procs" >&2
    for f in BENCH_sched.json BENCH_soak.json BENCH_subs.json BENCH_edge.json BENCH_wire2.json; do
        if [ -f "$f" ]; then
            echo "$f recorded env:" >&2
            grep -A6 '"env"' "$f" | head -7 >&2
        fi
    done
    exit 1
fi

go run ./cmd/cmifbench -smoke \
    -store-out "$BENCH_DIR/BENCH_store.json" \
    -sched-out "$BENCH_DIR/BENCH_sched.json" \
    -durable-out "$BENCH_DIR/BENCH_durable.json" \
    -subs-out "$BENCH_DIR/BENCH_subs.json" \
    -edge-out "$BENCH_DIR/BENCH_edge.json" \
    -wire2-out "$BENCH_DIR/BENCH_wire2.json" \
    -check-store BENCH_store.json \
    -check-sched BENCH_sched.json \
    -check-durable BENCH_durable.json \
    -check-subs BENCH_subs.json \
    -check-edge BENCH_edge.json \
    -check-wire2 BENCH_wire2.json \
    S1 S2 S4 S6 S7 S9

go run ./cmd/cmifsoak -smoke \
    -out "$BENCH_DIR/BENCH_soak.json" \
    -check BENCH_soak.json

echo "bench-regression gate passed (results in $BENCH_DIR)"
