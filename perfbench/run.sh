#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it. Run from the
# repository root:
#
#   bash perfbench/run.sh --workload detailed-jacobi --seed 1 --seconds 30 --trace 0
#
# Everything the build and the run write stays under .bench_build and
# .bench_out in the current directory; nothing is downloaded.
set -euo pipefail
root=$(pwd)
build="$root/.bench_build"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" \
	XDG_CONFIG_HOME="$build/config" GOPROXY=off GOTOOLCHAIN=local GOFLAGS=-mod=readonly
mkdir -p "$GOTMPDIR"
(cd perfbench && go build -o "$build/perfbench" .)
exec "$build/perfbench" "$@"
