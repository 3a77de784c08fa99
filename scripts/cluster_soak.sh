#!/bin/sh
# Nightly minutes-scale cluster churn soak: a 3-node cmifd -role node cluster runs
# under a continuous ClusterClient workload (cmifsoak -cluster) while
# this script kill -9s a different node every cycle and restarts it on
# its own data directory, for at least $CYCLES (default 3) kill/rejoin
# cycles. When the churn window closes, the driver's audit phase
# re-fetches EVERY acknowledged write through the cluster and the gate
# fails on a single missing or corrupt block: zero acked-write loss.
#
# Artifacts land in $OUT_DIR (default ./soak-artifacts): the driver's
# SOAK_cluster.json report plus each node's log, uploaded by the
# nightly job so a red run is diagnosable from the workflow page.
#
# Binaries are taken from $BIN (default ./bin) — build them first:
#   go build -o bin/ ./cmd/cmifd ./cmd/cmifsoak ./cmd/cmifget
# Run from the repository root: ./scripts/cluster_soak.sh
set -eu

BIN=${BIN:-bin}
OUT_DIR=${OUT_DIR:-soak-artifacts}
N1=127.0.0.1:7951
N2=127.0.0.1:7952
N3=127.0.0.1:7953
SOAK_SECONDS=${SOAK_SECONDS:-180}
CYCLES=${CYCLES:-3}
WORKERS=${WORKERS:-6}

mkdir -p "$OUT_DIR"
work=$(mktemp -d)
n1=""; n2=""; n3=""; driver=""
cleanup() {
    for pid in $driver $n1 $n2 $n3; do
        kill -TERM "$pid" 2>/dev/null || true
    done
    for pid in $driver $n1 $n2 $n3; do
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
        [ "$i" -ge 100 ] && { echo "node $1 never came up" >&2; exit 1; }
        sleep 0.2
    done
}

# A restarted node is safe to leave behind once it has resynced what it
# missed — a node logs "synced" exactly then.
wait_synced() {
    i=0
    until grep -q "synced" "$1" 2>/dev/null; do
        i=$((i + 1))
        [ "$i" -ge 300 ] && { echo "restarted node never reported synced ($1)" >&2; exit 1; }
        sleep 0.2
    done
}

start_node() { # addr datadir peers logfile
    if [ -n "$3" ]; then
        "$BIN"/cmifd -role node -addr "$1" -data "$2" -peers "$3" \
            -sync always -gossip-interval 100ms >"$4" 2>&1 &
    else
        "$BIN"/cmifd -role node -addr "$1" -data "$2" \
            -sync always -gossip-interval 100ms >"$4" 2>&1 &
    fi
}

start_node "$N1" "$work/n1" ""    "$OUT_DIR/node1.log"; n1=$!
wait_up "$N1"
start_node "$N2" "$work/n2" "$N1" "$OUT_DIR/node2.log"; n2=$!
start_node "$N3" "$work/n3" "$N1" "$OUT_DIR/node3.log"; n3=$!
wait_up "$N2"
wait_up "$N3"
echo "cluster_soak: 3 nodes up, starting ${SOAK_SECONDS}s driver with $CYCLES kill/rejoin cycles"

"$BIN"/cmifsoak -cluster "$N1,$N2,$N3" \
    -seconds "$SOAK_SECONDS" -workers "$WORKERS" \
    -out "$OUT_DIR/SOAK_cluster.json" &
driver=$!

# Spread the cycles across the churn window, leaving the last quarter
# quiet so every restarted node is synced well before the audit.
gap=$((SOAK_SECONDS * 3 / 4 / (CYCLES + 1)))
[ "$gap" -lt 5 ] && gap=5
cycle=0
while [ "$cycle" -lt "$CYCLES" ]; do
    sleep "$gap"
    case $((cycle % 3)) in
        0) victim=$n2; vaddr=$N2; vdata=$work/n2; vlog=$OUT_DIR/node2.log; vpeer=$N1 ;;
        1) victim=$n3; vaddr=$N3; vdata=$work/n3; vlog=$OUT_DIR/node3.log; vpeer=$N1 ;;
        2) victim=$n1; vaddr=$N1; vdata=$work/n1; vlog=$OUT_DIR/node1.log; vpeer=$N2 ;;
    esac
    cycle=$((cycle + 1))
    echo "cluster_soak: cycle $cycle/$CYCLES — kill -9 $vaddr"
    kill -9 "$victim" 2>/dev/null || true
    wait "$victim" 2>/dev/null || true
    sleep 3
    echo "cluster_soak: cycle $cycle/$CYCLES — restarting $vaddr on its data dir"
    : >"$vlog"
    start_node "$vaddr" "$vdata" "$vpeer" "$vlog"
    case $((cycle % 3)) in
        1) n2=$! ;;
        2) n3=$! ;;
        0) n1=$! ;;
    esac
    wait_synced "$vlog"
    echo "cluster_soak: cycle $cycle/$CYCLES — $vaddr resynced"
done

# The driver exits nonzero if any acknowledged write is missing or
# corrupt in the final audit, or if reads failed through the churn.
if wait "$driver"; then
    driver=""
    echo "cluster_soak: zero acked-write loss across $CYCLES kill/rejoin cycles — gate passed"
else
    driver=""
    echo "cluster_soak: GATE FAILED — see $OUT_DIR/SOAK_cluster.json and node logs" >&2
    exit 1
fi
