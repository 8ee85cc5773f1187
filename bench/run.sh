#!/usr/bin/env bash
# Builds the benchmark harness from this checkout and runs it with the
# given arguments. Run it from the repository root:
#
#   bash bench/run.sh                          # all workloads, 7 reps each
#   bash bench/run.sh --workload fleet-256 --seed 2 --seconds 20 --trace 0
#
# Everything the build writes (Go build cache, temporary files, the
# binary) stays under .bench_build/ in the repository root.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp" \
	GOMODCACHE="$build/gomod" GOTOOLCHAIN=local GOPROXY=off GOWORK=off

(cd "$root/bench" && go build -o "$build/holmes-bench" .)
exec "$build/holmes-bench" "$@"
