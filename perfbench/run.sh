#!/usr/bin/env bash
# Builds the benchmark from the checkout it is run in and runs it:
#
#   bash perfbench/run.sh --workload cold-solve --seed 1 --seconds 20 --trace 0
#
# Run from the repository root. Every build artefact (Go build cache,
# GOPATH, temporary files, toolchain config) stays under .bench_build/ in
# that directory.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache"
export GOPATH="$build/gopath"
export XDG_CONFIG_HOME="$build/config"
export GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off CGO_ENABLED=0

go -C perfbench build -o "$build/perfbench" .
exec "$build/perfbench" "$@"
