#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given
# arguments. Run from the repository root:
#
#   bash hsperf/run.sh --workload explore_switch --seed 1 --seconds 15 --trace 0
#   bash hsperf/run.sh compare BASE_DIR CHANGE_DIR
#
# Everything the build writes (Go build cache, binary, traces) stays
# under .bench_build/ in the current directory.
set -euo pipefail

out="$PWD/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOTMPDIR="$out/tmp"
export GOPROXY=off GOTOOLCHAIN=local GOWORK=off GOFLAGS=-mod=readonly
(cd hsperf && go build -o "$out/hsperf" .) >&2
exec "$out/hsperf" "$@"
