#!/bin/sh
# Docs freshness check: identifiers the docs reference must still exist in
# the source, so a rename or removal fails CI instead of silently rotting
# the documentation.
#
#   - every backticked `opXxx` / `maxXxx` / `streamXxx` / `muxXxx` /
#     `defaultXxx` / `protoXxx` / `changeXxx` / `shedXxx` /
#     `endReasonXxx` identifier in docs/PROTOCOL.md must appear in
#     internal/transport/wire.go or internal/transport/live.go (the
#     subscription fan-out hub);
#   - every backticked `cmif.Xxx` symbol in docs/ and README.md must
#     appear in the cmif facade sources;
#   - every backticked `sched.Xxx` / `player.Xxx` / `pipeline.Xxx` /
#     `filter.Xxx` / `core.Xxx` / `attr.Xxx` symbol in docs/ must appear
#     in that internal package (the scheduler-internals section of
#     ARCHITECTURE.md names all six);
#   - every backticked `durable.Xxx` / `media.Xxx` / `ddbms.Xxx` /
#     `metrics.Xxx` / `corpus.Xxx` / `edge.Xxx` / `cluster.Xxx` /
#     `codec.Xxx` / `chunker.Xxx` symbol in docs/ must
#     appear in the corresponding internal package, and every `recXxx`
#     record op named in the durability section must appear in
#     internal/durable/record.go;
#   - the redesigned client API must stay documented: the docs must
#     reference `cmif.Fetcher`, the typed option sets (`cmif.DialOption`,
#     `cmif.ServeOption`, `cmif.EdgeOption`, `cmif.JoinOption`,
#     `cmif.ClusterOption`) and the `edge.` package at least once each,
#     and each of those symbols must still exist;
#   - the server seam must stay documented: the docs must reference
#     `transport.Backend`, and the interface must still exist;
#   - every backticked `cmif_xxx` metric name in docs/ must appear in the
#     source, so the documented metric inventory tracks the instruments;
#   - every upper-case `XXX.md` file a Go comment under internal/, cmif/,
#     cmd/ or the root package names must exist, at the root or in docs/.
#
# Run from the repository root: ./scripts/check_docs.sh
set -eu

fail=0

# Wire-protocol identifiers (op codes, entry flags, framing limits,
# protocol versions, stream, mux and subscription constants).
for ident in $(grep -o '`\(op\|max\|entry\|batch\|stream\|mux\|default\|proto\|change\|shed\|endReason\)[A-Za-z]*`' docs/PROTOCOL.md | tr -d '`' | sort -u); do
    if ! grep -q "\b$ident\b" internal/transport/wire.go internal/transport/live.go; then
        echo "docs/PROTOCOL.md references \`$ident\`, which no longer exists in internal/transport/wire.go or live.go" >&2
        fail=1
    fi
done

# Facade symbols referenced from the docs and README.
for sym in $(grep -ho '`cmif\.[A-Za-z]*`' docs/*.md README.md | sed 's/`cmif\.\(.*\)`/\1/' | sort -u); do
    if ! grep -q "\b$sym\b" cmif/*.go; then
        echo "docs reference \`cmif.$sym\`, which no longer exists in the cmif facade" >&2
        fail=1
    fi
done

# Internal transport symbols named in the protocol error-taxonomy table.
for sym in $(grep -ho '`transport\.[A-Za-z]*`' docs/*.md | sed 's/`transport\.\(.*\)`/\1/' | sort -u); do
    if ! grep -q "\b$sym\b" internal/transport/*.go; then
        echo "docs reference \`transport.$sym\`, which no longer exists in internal/transport" >&2
        fail=1
    fi
done

# Scheduler, player, pipeline, filter, core and attr symbols
# (ARCHITECTURE.md "Scheduler internals"), durability-layer symbols
# ("Durable server state") plus the observability and corpus packages
# ("Observability & load").
for pkg in sched player pipeline filter core attr durable media ddbms metrics corpus edge cluster codec chunker; do
    for sym in $(grep -ho "\`$pkg\.[A-Za-z.()]*\`" docs/*.md | sed "s/\`$pkg\.\([A-Za-z]*\).*/\1/" | sort -u); do
        if ! grep -q "\b$sym\b" "internal/$pkg"/*.go; then
            echo "docs reference \`$pkg.$sym\`, which no longer exists in internal/$pkg" >&2
            fail=1
        fi
    done
done

# Metric names documented in the observability section: each must be
# registered somewhere in the source (internal packages or the facade).
for name in $(grep -ho '`cmif_[a-z_]*`' docs/*.md | tr -d '`' | sort -u); do
    if ! grep -rq "\"$name\"" internal cmif; then
        echo "docs reference metric \`$name\`, which is never registered in the source" >&2
        fail=1
    fi
done

# Required coverage for the redesigned client API: the Fetcher seam,
# the typed option sets and the edge tier must stay documented (and the
# symbols themselves must still exist — the facade loop above validates
# existence for anything referenced, this insists they are referenced).
for sym in Fetcher DialOption ServeOption EdgeOption JoinOption ClusterOption; do
    if ! grep -q "\`cmif\.$sym\`" docs/*.md; then
        echo "docs no longer document \`cmif.$sym\` — the client API section has rotted" >&2
        fail=1
    fi
done
if ! grep -q '`edge\.[A-Za-z]' docs/*.md; then
    echo "docs no longer reference the internal/edge package — the edge-tier section has rotted" >&2
    fail=1
fi

# The one seam between the server core and its three backends.
if ! grep -q '`transport\.Backend`' docs/*.md; then
    echo "docs no longer document \`transport.Backend\` — the server-core section has rotted" >&2
    fail=1
fi
if ! grep -q '^type Backend interface' internal/transport/*.go; then
    echo "docs document \`transport.Backend\`, which is no longer an interface in internal/transport" >&2
    fail=1
fi

# WAL record ops named in the durability section.
for ident in $(grep -o '`rec[A-Za-z]*`' docs/ARCHITECTURE.md | tr -d '`' | sort -u); do
    if ! grep -q "\b$ident\b" internal/durable/record.go; then
        echo "docs/ARCHITECTURE.md references \`$ident\`, which no longer exists in internal/durable/record.go" >&2
        fail=1
    fi
done

# Markdown files cited from Go comments (the reverse direction: source
# pointing at a document that was never written or has been removed).
for name in $(grep -rho --include='*.go' '//.*[A-Z][A-Z_]*\.md' internal cmif cmd ./*.go | grep -o '[A-Z][A-Z_]*\.md' | sort -u); do
    if [ ! -f "$name" ] && [ ! -f "docs/$name" ]; then
        echo "a Go comment cites $name, which exists neither at the root nor in docs/" >&2
        fail=1
    fi
done

if [ "$fail" -ne 0 ]; then
    echo "docs are stale: update docs/PROTOCOL.md / docs/ARCHITECTURE.md / README.md" >&2
    exit 1
fi
echo "docs are fresh"
