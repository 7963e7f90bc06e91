#!/usr/bin/env bash
# Builds the fenrir daemon and the benchmark from the checkout this is run
# in, then runs the benchmark with the given arguments:
#
#   bash perfbench/run.sh --workload batch-long --seed 1 --seconds 15 --trace 0
#
# Run it from the repository root. Everything it builds, caches and writes
# stays under .bench_build/ in that root.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/mod"
export GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOENV=off CGO_ENABLED=0 GOFLAGS=
# Release builds: no -race, no coverage; the benchmark refuses a race build.
go build -trimpath -o "$out/fenrir" ./cmd/fenrir >&2
(cd perfbench && go build -trimpath -o "$out/perfbench" .) >&2
exec "$out/perfbench" -daemon "$out/fenrir" -state "$out/state" "$@"
