#!/usr/bin/env bash
# Entry point named by BENCHMARK.json: builds the benchmark from the
# checkout's source, then runs it. Everything it writes — Go's build
# cache, the binary, the run's store — stays under .bench_build in the
# checkout.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
build="$(dirname "$here")/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/go-cache" GOTOOLCHAIN=local GOPROXY=off
go build -C "$here" -o "$build/lsmkv-benchmark" . >&2
exec "$build/lsmkv-benchmark" -rundir "$build" "$@"
