#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it. Run from the
# repository root:
#
#   bash perfbench/run.sh --workload cold-cubic --seed 1 --seconds 15 --trace 0
#   bash perfbench/run.sh --smoke
#
# Build outputs, the Go build cache, Go's own config and telemetry files and
# the daemon's scratch snapshots all stay under .bench_build/ in the
# checkout. The module has no dependencies, so nothing is downloaded.
set -euo pipefail
root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config" \
	GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=readonly
go -C perfbench build -o "$build/perfbench" . >&2
exec "$build/perfbench" "$@"
