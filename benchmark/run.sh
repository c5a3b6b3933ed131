#!/usr/bin/env bash
# Builds the benchmark from source in this checkout and runs it:
#
#   bash benchmark/run.sh --workload plan-table1 --seed 1 --seconds 20 --trace 0
#
# Run from the repository root. The build and everything the run writes
# stay under .bench_build/ in the checkout. Without the repository's
# sources next to benchmark/ the build fails and the script exits non-zero.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/gotmp" "$build/xdg"
export GOCACHE="$build/gocache" GOTMPDIR="$build/gotmp" XDG_CONFIG_HOME="$build/xdg"
export GOMODCACHE="$build/gomodcache" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
go build -C "$root/benchmark" -o "$build/bin/xbench" .
exec "$build/bin/xbench" "$@"
