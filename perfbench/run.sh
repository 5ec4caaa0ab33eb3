#!/usr/bin/env bash
# Builds the simulator benchmark from the source tree it sits in and runs it.
#
#   bash perfbench/run.sh --workload fused-sweep --seed 1 --seconds 20 --trace 0
#
# Run it from the repository root. Every build artifact, cache and scratch
# file stays under .bench_build/ in that root.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/gopath" "$build/tmp" "$build/config"

export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOMODCACHE="$build/gopath/pkg/mod"
export GOTOOLCHAIN=local GOFLAGS= GOWORK=off GOPROXY=off
export TMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config"
# Fall back to the default install location when go is not on PATH.
command -v go >/dev/null || PATH="$PATH:/usr/local/go/bin"

go -C "$root/perfbench" build -o "$build/perfbench" .
exec "$build/perfbench" -root "$root" "$@"
