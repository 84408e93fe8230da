#!/usr/bin/env bash
# Builds the benchmark from the sources of the checkout it sits in and runs
# it with the given arguments, from the checkout's root:
#
#   bash perfbench/run.sh --workload disj-full --seed 1 --seconds 20 --trace 0
#
# The build cache, the binary and the span dumps stay under .bench_build/.
set -euo pipefail
root=$(cd "$(dirname "$0")/.." && pwd)
cd "$root"
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/gopath" "$build/tmp" "$build/config"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" \
	XDG_CONFIG_HOME="$build/config" GOENV=off GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
sha=$(git rev-parse HEAD 2>/dev/null || echo unknown)
go build -C perfbench -buildvcs=false -ldflags "-X main.gitSHA=$sha" -o "$build/perfbench" .
exec "$build/perfbench" "$@"
