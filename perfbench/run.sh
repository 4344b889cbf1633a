#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources into .bench_build and runs
# it with the given arguments. Run it from the root of the checkout:
#
#   bash perfbench/run.sh --workload sim --seed 1 --seconds 20 --trace 0
#
# The Go build cache and the go command's user configuration (telemetry
# counters included) also live under .bench_build, so the build writes
# nothing outside the checkout and needs no network.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" XDG_CONFIG_HOME="$out/config" \
	GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=readonly GOWORK=off
go -C perfbench build -o "$out/bin/perfbench" .
exec "$out/bin/perfbench" "$@"
