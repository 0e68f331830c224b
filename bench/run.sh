#!/usr/bin/env bash
# Builds the benchmark and the server under test (cmd/contender-serve)
# from source into .bench_build/, then runs the benchmark with the given
# arguments. Run it from the root of the repository:
#
#   bash bench/run.sh --workload point --seed 1 --seconds 20 --trace 0
#
# Every build and run artifact stays inside .bench_build/: the Go build
# cache too, so nothing is read or written outside the checkout but the
# Go toolchain itself. The first run of a checkout compiles the standard
# library into that cache.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp"
export GOENV=off GOFLAGS= GOWORK=off GOTOOLCHAIN=local GOPROXY=off CGO_ENABLED=0

go build -o "$out/contender-serve" ./cmd/contender-serve
go -C bench build -o "$out/contender-bench" .
exec "$out/contender-bench" -server "$out/contender-serve" -trace-dir "$out/trace" "$@"
