#!/usr/bin/env bash
# Builds the consensusd serve benchmark and runs it with the given flags.
# Run it from the repository root:
#
#   bash bench/run.sh -workload hit -seed 1 [-seconds 20] [-trace 0|1]
#
# The binary, the Go build cache (and the go command's own config and
# telemetry files) and every file the benchmark writes stay under
# .bench_build/ in the current directory.
set -euo pipefail

out="$(pwd)/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" \
	XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOPROXY=off

go -C bench build -o "$out/consensusbench" .
exec "$out/consensusbench" "$@"
