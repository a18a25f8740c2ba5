#!/usr/bin/env bash
# Builds the benchmark from the checkout's source and runs it with the given
# arguments. Run it from the repository root:
#
#   bash perfbench/run.sh --workload kv-single --seed 1 --seconds 10 --trace 0
#
# Build outputs and the Go build cache stay under .bench_build/ in the
# current directory.
set -euo pipefail
out="$(pwd)/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOTOOLCHAIN=local GOFLAGS=-mod=mod GOWORK=off
go -C perfbench build -o "$out/perfbench" .
exec "$out/perfbench" "$@"
