#!/usr/bin/env bash
# Builds the benchmark inside the checkout it is run from and runs it there:
# the build cache, the binary and the work files all stay under .bench_build.
set -euo pipefail
build="$PWD/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" GOTOOLCHAIN=local
go build -o "$build/benchmark" ./benchmark
exec "$build/benchmark" -dir "$build/work" "$@"
