#!/usr/bin/env bash
# Builds perfbench from this checkout and runs it with the given flags.
# Run from the repository root:
#
#   bash perfbench/run.sh --workload matrix-warm --seed 1 --seconds 25 --trace 0
#
# Build outputs, the Go build cache and run state stay in .bench_build.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gopath" "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off
(cd perfbench && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
