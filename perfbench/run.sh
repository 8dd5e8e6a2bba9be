#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it.
#
#   bash perfbench/run.sh --workload stencil --seed 1 --seconds 15 --trace 0
#
# Every file the build and the run write stays under .bench_build/ in the
# current directory (the checkout root): the Go build cache, the binary,
# temporary stores and span dumps.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache"
export GOPATH="$out/gopath"
export XDG_CONFIG_HOME="$out/config"
export TMPDIR="$out/tmp"
export GOTOOLCHAIN=local
export GOPROXY=off
export GOFLAGS=-mod=mod

go -C "$root/perfbench" build -o "$out/perfbench" . >&2
exec "$out/perfbench" "$@"
