#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments.
# Everything the build and the run leave behind (Go build cache, the binary,
# spill files of budgeted mines) lands under .bench_build/ at the checkout
# root, so a run reads and writes nothing outside its checkout.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/go-cache" GOMODCACHE="$build/go-mod" GOTOOLCHAIN=local
export TMPDIR="$build/tmp"
go build -C "$here" -o "$build/lashbench" .
cd "$root"
exec "$build/lashbench" "$@"
