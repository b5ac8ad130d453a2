#!/usr/bin/env bash
# Builds the benchmark from source into <checkout>/.bench_build and runs
# it with the given arguments from the checkout root. The Go build cache
# and temp dir are kept inside the checkout so nothing is written
# outside it.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/gotmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/gotmp" GOFLAGS=-mod=mod GOTOOLCHAIN=local
(cd "$here" && go build -o "$build/frspine" .)
cd "$root"
exec "$build/frspine" "$@"
