#!/usr/bin/env bash
# Builds the benchmark from the sources in this checkout and runs it.
# Run from the repository root; every argument goes to the benchmark:
#
#   bash lhtperf/run.sh --workload lookup --seed 1 --seconds 10 --trace 0
#
# The binary, the Go build cache and any Go tool state are kept under
# .bench_build/ in the repository root, so a run writes nothing outside it.
set -euo pipefail

root=$(pwd)
src=$(cd "$(dirname "$0")" && pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gopath" "$out/tmp" "$out/config"

export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp"
export XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOWORK=off GOFLAGS=

go -C "$src" build -o "$out/lhtperf" .
exec "$out/lhtperf" "$@"
