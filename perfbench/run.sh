#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it from the
# checkout root, passing every argument through:
#
#   bash perfbench/run.sh --workload record-replay --seed 1 --seconds 30 --trace 0
#
# Build outputs (the Go build cache, the toolchain's local telemetry
# and the binary) stay under .bench_build/ in the checkout. The
# toolchain never goes to the network.
set -euo pipefail
root="$(pwd)"
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/go-cache" XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
go build -C "$root/perfbench" -o "$out/perfbench" .
exec "$out/perfbench" "$@"
