#!/usr/bin/env bash
# Builds the campaign benchmark from this checkout's source and runs it.
# Run from the repository root, e.g.
#
#   bash bench/run.sh --workload matrix --seed 7 --seconds 10 --trace 0
#
# Everything the build and the run write stays under .bench_build/ in
# the checkout: the Go build cache and configuration, the binary, and
# (through TMPDIR) the results, traces and scratch stores. The build
# uses the local toolchain and no module proxy, so it never reaches the
# network.
set -euo pipefail

build="$(pwd)/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOMODCACHE="$build/gopath/pkg/mod"
export XDG_CONFIG_HOME="$build/config" TMPDIR="$build/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off
(cd bench && go build -o "$build/bench" .)
exec "$build/bench" "$@"
