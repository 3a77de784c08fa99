#!/bin/sh
# Cluster crash-tolerance smoke: soak a live 3-node cluster under the
# standard soak gate while one replica is SIGKILLed mid-load, then prove
# the cluster's durability story end to end:
#
#   1. three cluster nodes (cmifd -role node, sync=always, replication 3)
#      gossip into a cluster; the soak driver runs its steady phases
#      plus overload flood against node 1 under the same SLO gate as
#      soak-smoke;
#   2. node 2 is killed -9 in the middle of the steady phase — the gate
#      still holds, so the kill cost the client nothing;
#   3. after the soak, every document the driver acked must be served by
#      node 3 (a different survivor): zero acknowledged-write loss;
#   4. node 2 restarts on its own data directory, rejoins, resyncs, and
#      must serve one of those documents within the recovery SLO.
#
# Binaries are taken from $BIN (default ./bin) — build them first:
#   go build -race -o bin/ ./cmd/cmifd ./cmd/cmifsoak ./cmd/cmifget
# Run from the repository root: ./scripts/cluster_smoke.sh
set -eu

BIN=${BIN:-bin}
N1=127.0.0.1:7931
N2=127.0.0.1:7932
N3=127.0.0.1:7933
M1=127.0.0.1:7941
SOAK_SECONDS=${SOAK_SECONDS:-30}
KILL_AFTER=${KILL_AFTER:-12}
RECOVERY_SLO=${RECOVERY_SLO:-30}

work=$(mktemp -d)
n1=""; n2=""; n3=""
cleanup() {
    for pid in $n1 $n2 $n3; do
        kill -TERM "$pid" 2>/dev/null || true
    done
    for pid in $n1 $n2 $n3; do
        wait "$pid" 2>/dev/null || true
    done
    rm -rf "$work"
}
trap cleanup EXIT

# A node is "up" once it answers a listing; give each a bounded window.
wait_up() {
    i=0
    until "$BIN"/cmifget -addr "$1" -timeout 2s list >/dev/null 2>&1; do
        i=$((i + 1))
        [ "$i" -ge 50 ] && { echo "node $1 never came up" >&2; exit 1; }
        sleep 0.2
    done
}

"$BIN"/cmifd -role node -addr "$N1" -metrics "$M1" -data "$work/n1" \
    -sync always -gossip-interval 100ms \
    -max-concurrent 8 -max-queue 32 &
n1=$!
wait_up "$N1"
"$BIN"/cmifd -role node -addr "$N2" -data "$work/n2" -peers "$N1" \
    -sync always -gossip-interval 100ms &
n2=$!
"$BIN"/cmifd -role node -addr "$N3" -data "$work/n3" -peers "$N1" \
    -sync always -gossip-interval 100ms &
n3=$!
wait_up "$N2"
wait_up "$N3"

# SIGKILL node 2 mid-steady-phase; the soak gate must hold regardless.
(
    sleep "$KILL_AFTER"
    echo "cluster_smoke: killing node 2 (-9)"
    kill -9 "$n2" 2>/dev/null || true
) &
killer=$!

# -overload-conns 2 (a quarter of the default flood) keeps the
# admitted-tail SLO honest: three race-built daemons share the runner,
# so the default flood would measure CPU starvation, not shedding
# quality. Two connections (16 pipelined requests each) still
# oversubscribe the 8-slot admission bound and force real shedding.
"$BIN"/cmifsoak -addr "$N1" -metrics-url "http://$M1/metrics" \
    -seconds "$SOAK_SECONDS" -overload-seconds 5 -rounds 1 \
    -overload-conns 2 \
    -out BENCH_cluster_ci.json
wait "$killer"
wait "$n2" 2>/dev/null || true
n2=""

# Zero acked-write loss: every document the soak acked is listed by a
# survivor the soak never spoke to, and every one of them is fetchable
# from it. The soak gate already failed above if any write errored, so
# the listing is exactly the acked set.
names=$("$BIN"/cmifget -addr "$N3" list)
count=$(printf '%s\n' "$names" | grep -c . || true)
if [ "$count" -eq 0 ]; then
    echo "survivor $N3 lists no documents after the soak" >&2
    exit 1
fi
for name in $names; do
    if ! "$BIN"/cmifget -addr "$N3" doc "$name" >/dev/null; then
        echo "acked document $name lost: survivor $N3 cannot serve it" >&2
        exit 1
    fi
done
echo "cluster_smoke: survivor $N3 serves all $count acked documents"

# Recovery SLO: the killed node restarts on its own data directory,
# rejoins via gossip, resyncs what it missed, and serves.
first=$(printf '%s\n' "$names" | head -1)
"$BIN"/cmifd -role node -addr "$N2" -data "$work/n2" -peers "$N1" \
    -sync always -gossip-interval 100ms &
n2=$!
deadline=$((RECOVERY_SLO * 5))
i=0
until "$BIN"/cmifget -addr "$N2" -timeout 2s doc "$first" >/dev/null 2>&1; do
    i=$((i + 1))
    if [ "$i" -ge "$deadline" ]; then
        echo "restarted node $N2 did not serve $first within ${RECOVERY_SLO}s" >&2
        exit 1
    fi
    sleep 0.2
done
echo "cluster_smoke: node 2 rejoined and serves again — gate passed"
