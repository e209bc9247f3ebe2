#!/usr/bin/env bash
# Builds the benchmark from this checkout and runs it. Everything the build
# and the run write — the Go build cache included — stays under
# .bench_build/ and benchmark/out/ in the checkout.
set -euo pipefail
here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
build="$here/../.bench_build"
mkdir -p "$build/bin"
build=$(cd "$build" && pwd)
export GOCACHE="$build/gocache" GOFLAGS=-mod=mod GOTOOLCHAIN=local GOPROXY=off
(cd "$here" && go build -o "$build/bin/benchmark" .)
cd "$here/.."
exec "$build/bin/benchmark" "$@"
