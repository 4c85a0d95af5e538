#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it.
#
#   bash perfbench/run.sh --workload fig10-campaign --seed 1 --seconds 20 --trace 0
#
# Run from the repository root. Everything the build and the run leave
# behind (Go build cache, binary, journals, result records) stays under
# .bench_build/ in the current directory.
set -euo pipefail

root=$(pwd)
work="$root/.bench_build"
mkdir -p "$work/home" "$work/gocache" "$work/gopath"

export HOME="$work/home" XDG_CONFIG_HOME="$work/home/.config"
export GOCACHE="$work/gocache" GOPATH="$work/gopath" GOMODCACHE="$work/gopath/pkg/mod"
export GOFLAGS=-mod=mod GOWORK=off GOTOOLCHAIN=local GOPROXY=off GOTELEMETRY=off

(cd "$root/perfbench" && go build -buildvcs=false -o "$work/perfbench" .)
exec "$work/perfbench" -out "$work/results" -tmp "$work/tmp" "$@"
