#!/usr/bin/env bash
# The benchmark's entry point (BENCHMARK.json names it). Builds cmifmark
# from source into .bench_build/ inside the checkout — Go's build cache,
# temp files and the data directories all stay there — and runs it from
# the checkout's root with the driver's arguments.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOFLAGS=-mod=mod GOTOOLCHAIN=local GOPROXY=off
# The module cache is never written (the only requirement is replaced by
# the checkout itself) but Go wants the variable to point somewhere.
export GOMODCACHE="$build/gomodcache"
go -C "$here" build -o "$build/cmifmark" ./cmd/cmifmark
cd "$root"
exec "$build/cmifmark" --workdir "$build/work" "$@"
