#!/usr/bin/env bash
# Builds the benchmark from source and runs one workload:
#
#   bash perfbench/run.sh --workload des-testbed --seed 1 --seconds 15 --trace 0
#
# Run from the repository root. Everything the build and the run write
# (Go build cache, binary, temp stores, spans, CPU profiles) stays under
# .bench_build/ in the current directory. The build needs the repository
# around perfbench/ (the parent Go module); without it the build fails
# and the script exits nonzero without printing a result.
set -euo pipefail

root=$(pwd)
build=${CARGO_TARGET_DIR:-.bench_build}
case $build in /*) ;; *) build=$root/$build ;; esac
mkdir -p "$build/tmp" "$build/gocache"

export GOCACHE=$build/gocache
export GOTMPDIR=$build/tmp
export GOTOOLCHAIN=local
export GOPROXY=off
export GOWORK=off
export CGO_ENABLED=0

(cd "$root/perfbench" && go build -o "$build/midas-perfbench" .)
exec "$build/midas-perfbench" -root "$root" -build "$build" "$@"
