#!/bin/sh
# Builds the benchmark from source and runs it with the given arguments:
#
#   sh benchmark/run.sh --workload fleet-rounds --seed 1 --seconds 20 --trace 0
#
# Run it from the root of the repository. The build cache, temporary
# files and the binary stay under .bench_build/ in that directory.
set -e
root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/go-cache" "$build/tmp"
export GOCACHE="$build/go-cache" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
export GOTOOLCHAIN=local GOFLAGS=-mod=mod GOPROXY=off GOWORK=off
go -C "$root/benchmark" build -o "$build/benchmark" .
exec "$build/benchmark" "$@"
