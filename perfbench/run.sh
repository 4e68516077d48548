#!/usr/bin/env bash
# Builds the benchmark from the checkout it is run in and runs it.  Run from
# the repository root:
#
#   bash perfbench/run.sh --workload core-long --seed 42 --seconds 20 --trace 0
#
# Everything the build and the run write goes under .bench_build/.
set -euo pipefail
out="$PWD/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" \
	GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off
go -C perfbench build -o "$out/perfbench" . >&2
exec "$out/perfbench" --dir "$out" "$@"
