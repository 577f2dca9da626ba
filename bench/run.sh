#!/usr/bin/env bash
# Builds awbench and runs it from the repository root:
#
#   bash bench/run.sh [awbench flags]
#
# The Go build cache and every temporary file live under .bench_build/
# in the checkout, and the toolchain is kept offline, so a run reads and
# writes nothing outside the checkout but the Go installation itself.
# Without the repository's sources around bench/ the build fails and
# the script exits non-zero without printing a result.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=readonly

go -C "$root/bench" build -o "$build/awbench" ./awbench
exec "$build/awbench" "$@"
