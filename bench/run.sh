#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments.
# Run it from the repository root:
#
#   bash bench/run.sh --workload sort-dist --seed 1 --seconds 20 --trace 0
#
# Everything it writes stays under the checkout: the Go build cache, the
# binary and the scratch files in .bench_build/, traces and set records in
# bench/out/. The build needs the repository's root module (bench/go.mod
# replaces it with ../), so it fails outside a full checkout.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomod" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
# The go command's config and telemetry live under XDG_CONFIG_HOME.
export XDG_CONFIG_HOME="$build/config"
export GOFLAGS= GOPROXY=off GOTOOLCHAIN=local
go -C bench build -o "$build/bench" .
exec "$build/bench" "$@"
