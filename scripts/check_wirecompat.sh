#!/bin/sh
# Compatibility window check. The window is one release: "previous" is
# the latest tag when one exists, else the parent commit — the newest
# code a real deployment could be running. Inside it:
#
#   1. current client -> previous server: the previous server answers
#      the current client's hello with the same protocol version and
#      every fetch round-trips (a new client never strands deployed
#      servers);
#   2. previous client -> current server: the current server answers
#      the previous client exactly as before (a rollout never strands
#      deployed clients);
#   3. previous data directory -> current node: a directory the
#      previous cmifd wrote (a snapshot and a WAL tail) is served by the
#      current cmifd as it was written.
#
# Nothing outside the window is served or read: a peer or a directory
# from an older release is carried across by a release inside it.
#
# Both sides speak one protocol version; a release that changes it
# cannot pass this check against its predecessor, by design.
#
# The check builds cmifd + cmifget from the previous ref in a temporary
# git worktree, preloads both servers with the same deterministic -news
# corpus, and requires the documents fetched across versions to be
# byte-identical to the current-vs-current baseline (inline fetches and
# two block fetches included, so block payloads cross the version
# boundary both inlined and through the batched block fetch). The
# current client also fetches a near-duplicate set in one batch —
# videos that share most of their chunks, two names for one voice-over
# and a repeated name — so that back-references and chunked entries
# cross the boundary; the previous client keeps its one-name block
# fetches. For the data directory, the previous cmifd preloads the same corpus
# into it, snapshotting at 4 KiB, and is stopped with TERM; the current
# cmifd then serves the directory with no preload, and the current
# client's listing, document and block fetches must match its baseline.
#
# Needs full git history (CI: fetch-depth 0). Run from the repository
# root: ./scripts/check_wirecompat.sh
set -eu

NEW_ADDR=127.0.0.1:7961
OLD_ADDR=127.0.0.1:7962
DATA_ADDR=127.0.0.1:7963

prev=$(git describe --tags --abbrev=0 2>/dev/null || git rev-parse HEAD~1)
echo "wirecompat: current HEAD vs $prev"

work=$(mktemp -d)
newd=""; oldd=""; datad=""
cleanup() {
    for pid in $newd $oldd $datad; do
        kill -TERM "$pid" 2>/dev/null || true
    done
    for pid in $newd $oldd $datad; do
        wait "$pid" 2>/dev/null || true
    done
    git worktree remove --force "$work/prev" 2>/dev/null || true
    rm -rf "$work"
}
trap cleanup EXIT

go build -o "$work/new/" ./cmd/cmifd ./cmd/cmifget
git worktree add --detach "$work/prev" "$prev" >/dev/null
(cd "$work/prev" && go build -o "$work/old/" ./cmd/cmifd ./cmd/cmifget)

"$work/new/cmifd" -addr "$NEW_ADDR" -news 2 &
newd=$!
"$work/old/cmifd" -addr "$OLD_ADDR" -news 2 &
oldd=$!

wait_up() { # getter addr
    i=0
    until "$1" -addr "$2" -timeout 2s list >/dev/null 2>&1; do
        i=$((i + 1))
        [ "$i" -ge 50 ] && { echo "server $2 never came up" >&2; exit 1; }
        sleep 0.2
    done
}
wait_up "$work/new/cmifget" "$NEW_ADDR"
wait_up "$work/old/cmifget" "$OLD_ADDR"

# fetch CLIENT SERVER OUT: every surface a deployed pairing exercises —
# the listing, the structured document, the inline fetch that moves the
# block payloads inside the document, and an audio and a video block
# fetched on their own.
fetch() {
    "$1" -addr "$2" list >"$3.list"
    "$1" -addr "$2" doc news >"$3.doc"
    "$1" -addr "$2" -inline doc news >"$3.inline"
    "$1" -addr "$2" block story0-voice.aud >"$3.audio"
    "$1" -addr "$2" block story1-crime-scene.vid >"$3.video"
}

# batch CLIENT SERVER OUT: the near-duplicate set in one batch (the
# current client only: the previous one fetches one name per call).
batch() {
    "$1" -addr "$2" block story0-crime-scene.vid story1-crime-scene.vid \
        story0-talking-head-1.vid story0-voice.aud story1-voice.aud \
        story0-crime-scene.vid story1-talking-head-2.vid >"$3.batch" 2>"$3.batchlog"
    echo "wirecompat: $(basename "$3") near-duplicate batch: $(tail -n 1 "$3.batchlog" | sed 's/^cmifget: //')"
}

# Each client is compared against its own same-version baseline, so a
# deliberate change in the TOOL's output format cannot masquerade as (or
# mask) a wire incompatibility: only the server on the other end varies
# within each pair.
fetch "$work/new/cmifget" "$NEW_ADDR" "$work/nc-ns"  # new client baseline
fetch "$work/new/cmifget" "$OLD_ADDR" "$work/nc-os"  # new client, old server
batch "$work/new/cmifget" "$NEW_ADDR" "$work/nc-ns"
batch "$work/new/cmifget" "$OLD_ADDR" "$work/nc-os"
fetch "$work/old/cmifget" "$OLD_ADDR" "$work/oc-os"  # old client baseline
fetch "$work/old/cmifget" "$NEW_ADDR" "$work/oc-ns"  # old client, new server

# The previous cmifd writes a data directory and drains on TERM; the
# current cmifd serves it with no preload of its own.
"$work/old/cmifd" -addr "$DATA_ADDR" -news 2 -snap-bytes 4096 -data "$work/data" &
datad=$!
wait_up "$work/old/cmifget" "$DATA_ADDR"
kill -TERM "$datad"
if ! wait "$datad"; then
    echo "wirecompat: the previous cmifd did not drain cleanly on TERM" >&2
    exit 1
fi
echo "wirecompat: previous data directory: $(ls "$work/data" | tr '\n' ' ')"
"$work/new/cmifd" -addr "$DATA_ADDR" -news 0 -data "$work/data" &
datad=$!
wait_up "$work/new/cmifget" "$DATA_ADDR"
fetch "$work/new/cmifget" "$DATA_ADDR" "$work/nc-od"  # new client, new server on the old directory

fail=0
for pair in "nc-ns nc-os" "oc-os oc-ns" "nc-ns nc-od"; do
    base=${pair% *}; side=${pair#* }
    whats="list doc inline audio video"
    [ "$pair" = "nc-ns nc-os" ] && whats="$whats batch"
    for what in $whats; do
        if ! cmp -s "$work/$base.$what" "$work/$side.$what"; then
            echo "wirecompat: $side $what differs from the $base baseline:" >&2
            diff "$work/$base.$what" "$work/$side.$what" >&2 || true
            fail=1
        fi
    done
done
[ "$fail" -ne 0 ] && exit 1

echo "wirecompat: both directions and the data directory byte-identical to baseline against $prev"
