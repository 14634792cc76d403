#!/usr/bin/env bash
# Builds the benchmark program from source and runs one workload. Run it
# from the repository root:
#
#   bash perfbench/run.sh --workload store-week --seed 1 --seconds 48 --trace 0
#
# Every build and run artifact stays under .bench_build/ in the current
# directory (Go build cache included). Outside a full checkout the build
# fails and the script exits non-zero without printing a result.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/bin" "$build/gocache" "$build/gomodcache" "$build/tmp"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOTMPDIR="$build/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off

(cd "$root/perfbench" && go build -o "$build/bin/perfbench" .)
exec "$build/bin/perfbench" --root "$root" "$@"
