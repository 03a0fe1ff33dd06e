#!/usr/bin/env bash
# Builds the navaug benchmark from source and runs it; every argument is
# passed through.  Run it from the repository root:
#
#   bash bench/run.sh --workload serve-dist-tree --seed 1 --seconds 10 --trace 0
#
# The Go build cache, temporary files and the binary stay in .bench_build/
# under the current directory, and the toolchain never goes to the network.
set -euo pipefail

build="$PWD/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath" \
	XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOPROXY=off GOWORK=off \
	GOFLAGS=-mod=readonly
go -C bench build -o "$build/navbench" .
exec "$build/navbench" "$@"
