#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build/ and runs it with the
# given arguments. Start it from the repository root. Build cache and
# binary stay inside the checkout; nothing is fetched.
set -euo pipefail
root=$PWD
build=$root/.bench_build
mkdir -p "$build"
export GOCACHE=$build/gocache GOPATH=$build/gopath GOTOOLCHAIN=local GOPROXY=off
go build -C "$root/bench" -o "$build/alvis-bench" . >&2
exec "$build/alvis-bench" "$@"
