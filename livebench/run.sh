#!/usr/bin/env bash
# Builds the live-stack benchmark from the checkout's sources and runs it
# with the given arguments. Run it from the repository root:
#
#   bash livebench/run.sh --workload tau --seed 1 --seconds 10 --trace 0
#
# The binary and every Go cache stay under .bench_build/ in the checkout;
# the build uses the local toolchain and no network.
set -euo pipefail

if [ ! -f go.mod ] || [ ! -d livebench ]; then
    echo "livebench: run from the repository root (go.mod and livebench/ not found)" >&2
    exit 1
fi
build="$(pwd)/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp"
export XDG_CONFIG_HOME="$build/config" GOENV=off GOTOOLCHAIN=local GOPROXY=off
go build -o "$build/livebench" ./livebench
exec "$build/livebench" "$@"
