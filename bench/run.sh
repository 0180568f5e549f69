#!/usr/bin/env bash
# What BENCHMARK.json names: build the benchmark inside the checkout and
# run it from the checkout's root. Every argument goes to the program.
set -euo pipefail
root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
build="$root/.bench_build"
mkdir -p "$build"
# Keep the toolchain's caches inside the checkout too.
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTOOLCHAIN=local GOFLAGS=-mod=readonly
go build -C "$root/bench" -o "$build/seep-perf" .
cd "$root"
exec "$build/seep-perf" -workdir "$build" "$@"
