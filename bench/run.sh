#!/bin/sh
# Entry point named by BENCHMARK.json: builds the harness from source
# into .bench_build/ inside the checkout (Go's build cache included, so
# nothing is written outside it) and runs it with the driver's flags.
set -eu
root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath"
export GOTOOLCHAIN=local GOWORK=off
go build -C "$root/bench" -o "$build/socrates-bench" .
exec "$build/socrates-bench" "$@"
