#!/usr/bin/env bash
# Builds wcmd and the load generator from the checkout this script sits in,
# then runs one workload:
#
#   bash perfbench/run.sh --workload read_mostly --seed 1 --seconds 16 --trace 0
#
# Run it from the root of the checkout. Everything the build and the run
# write stays under .bench_build/perfbench there: the Go build cache, the
# binaries, data directories while a run lasts, and traced runs' span dumps.
set -euo pipefail
root=$(pwd)
build="$root/.bench_build/perfbench"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOMODCACHE="$build/gomod"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=mod GOWORK=off
go build -o "$build/wcmd" ./cmd/wcmd
(cd perfbench && go build -o "$build/perfbench" .)
exec "$build/perfbench" -wcmd "$build/wcmd" -workdir "$build" "$@"
