#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs it.
# Run from the repository root:
#   bash perfbench/run.sh --workload paper-mo --seed 1 --seconds 10 --trace 0
# Everything it writes (build cache, binary, scratch stores, span files)
# goes under .bench_build in the current directory.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/tmp"

# Hermetic, like-with-like build and run: no network, no toolchain
# switch, no persistent store, no pinned block width, default GOMAXPROCS.
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath"
export XDG_CONFIG_HOME="$build/config" # go env and telemetry files
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=
unset CHAFFMEC_STORE CHAFFMEC_BLOCK CHAFFMEC_WORKER_CRASH CHAFFMEC_WIRE GOMAXPROCS GOGC GODEBUG

(cd "$root/perfbench" && go build -o "$build/perfbench" .)
exec "$build/perfbench" "$@"
