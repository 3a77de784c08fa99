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
#   - every backticked identifier in README.md's *Surface map* table
#     (`Name`, `Type.Method`, `Prefix*` for a family, `Name(args)`) must
#     be declared — as a func, method, type, const or var — in the
#     non-test cmif sources, so a row naming a deleted entry point fails
#     here rather than rotting;
#   - every backticked `sched.Xxx` / `player.Xxx` / `pipeline.Xxx` /
#     `filter.Xxx` / `core.Xxx` / `attr.Xxx` symbol in docs/ must appear
#     in that internal package (the scheduler-internals section of
#     ARCHITECTURE.md names all six);
#   - every backticked `durable.Xxx` / `media.Xxx` / `ddbms.Xxx` /
#     `metrics.Xxx` / `corpus.Xxx` / `edge.Xxx` / `cluster.Xxx` /
#     `codec.Xxx` / `chunker.Xxx` / `transport.Xxx` / `edit.Xxx` /
#     `render.Xxx` / `present.Xxx` / `units.Xxx` / `fsio.Xxx` symbol in
#     docs/ must appear in the corresponding internal package, and every `recXxx`
#     record op named in the durability section must appear in
#     internal/durable/record.go — and, the other way round, every `rec`
#     op constant record.go declares must be named in that section, so
#     a new or retired op cannot go undocumented;
#   - the redesigned client API must stay documented: the docs must
#     reference `cmif.Fetcher`, the typed option sets (`cmif.DialOption`,
#     `cmif.ServeOption`, `cmif.EdgeOption`, `cmif.JoinOption`) and the
#     `edge.` package at least once each, and each of those symbols must
#     still exist;
#   - the server seam must stay documented: the docs must reference
#     `transport.Backend`, and the interface must still exist;
#   - every backticked `cmif_xxx` metric name in docs/ must appear in the
#     source, so the documented metric inventory tracks the instruments;
#   - every upper-case `XXX.md` file a Go comment under internal/, cmif/,
#     cmd/ or the root package names must exist, at the root or in docs/;
#   - every backticked `TestXxx` / `BenchmarkXxx` / `FuzzXxx` name in
#     docs/ or README.md must be declared by some `_test.go` in the tree
#     (bench/ included), so a renamed or deleted test cannot stay cited.
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

# Every identifier the README's Surface map table names must be declared
# by the facade's non-test sources.
facade=$(ls cmif/*.go | grep -v '_test\.go$')
declared=$( (sed -n 's/^func \(([^)]*) \)\{0,1\}\([A-Z][A-Za-z0-9]*\).*/\2/p; s/^\(type\|const\|var\) \([A-Z][A-Za-z0-9]*\).*/\2/p' $facade
    awk '/^(const|var) \($/{g=1; next} g && /^\)/{g=0} g && /^\t[A-Z]/{sub(/^\t/, ""); sub(/[^A-Za-z0-9].*/, ""); print}' $facade) | sort -u)
surface=$(awk '/^### Surface map/{on=1; next} /^#/{on=0} on && /^\|/' README.md | grep -o '`[^`]*`' | tr -d '`' | sed 's/(.*//' | sort -u)
if [ -z "$surface" ]; then
    echo "README.md has no Surface map table to check" >&2
    fail=1
fi
for ident in $surface; do
    for part in $(printf '%s\n' "$ident" | tr '.' ' '); do
        case "$part" in
        *'*') found=$(printf '%s\n' "$declared" | grep -c "^${part%\*}" || true) ;;
        *) found=$(printf '%s\n' "$declared" | grep -cx "$part" || true) ;;
        esac
        if [ "$found" -eq 0 ]; then
            echo "README.md's Surface map names \`$ident\`, but the cmif facade declares no \`$part\`" >&2
            fail=1
        fi
    done
done

# Scheduler, player, pipeline, filter, core and attr symbols
# (ARCHITECTURE.md "Scheduler internals"), durability-layer symbols
# ("Durable server state"), the observability and corpus packages
# ("Observability & load"), the transport (the protocol error-taxonomy
# table among others) and the editing, rendering, presentation, units
# and file-system helpers.
for pkg in sched player pipeline filter core attr durable media ddbms metrics corpus edge cluster codec chunker transport edit render present units fsio; do
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
for sym in Fetcher DialOption ServeOption EdgeOption JoinOption; do
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

# ...and every record op record.go declares must be named in the
# durability section ("### N. Durable server state" up to the next
# section heading).
durability=$(awk '/^### [0-9]+\. Durable server state/{on=1; next} /^##/{on=0} on' docs/ARCHITECTURE.md)
recops=$(sed -n 's/^[[:space:]]*\(rec[A-Za-z]*\) byte = .*/\1/p' internal/durable/record.go)
if [ -z "$recops" ]; then
    echo "found no record op constants in internal/durable/record.go" >&2
    fail=1
fi
for ident in $recops; do
    if ! printf '%s\n' "$durability" | grep -q "\`$ident\`"; then
        echo "internal/durable/record.go declares \`$ident\`, which the durability section of docs/ARCHITECTURE.md never names" >&2
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

# Tests, benchmarks and fuzz targets cited by name.
for name in $(grep -ho '`\(Test\|Benchmark\|Fuzz\)[A-Za-z0-9_]*' docs/*.md README.md | tr -d '`' | sort -u); do
    if ! grep -rqs --include='*_test.go' "^func $name(" .; then
        echo "docs reference \`$name\`, which no _test.go declares" >&2
        fail=1
    fi
done

if [ "$fail" -ne 0 ]; then
    echo "docs are stale: update docs/PROTOCOL.md / docs/ARCHITECTURE.md / README.md" >&2
    exit 1
fi
echo "docs are fresh"
