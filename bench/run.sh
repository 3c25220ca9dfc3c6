#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given flags.
# Run from the repository root; the Go build cache, the binary and
# everything a run writes stay in .bench_build there.
#
#   bash bench/run.sh --workload paper_round --seed 1 --seconds 20 --trace 0
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath"
export GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=readonly GOWORK=off
(cd "$root/bench" && go build -o "$out/bench" .)
exec "$out/bench" "$@"
