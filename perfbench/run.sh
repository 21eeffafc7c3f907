#!/usr/bin/env bash
# Builds dragprof, draganalyze, dragserved and the benchmark from the
# source tree, then runs the benchmark with the given arguments. Run it
# from the repository root:
#
#   bash perfbench/run.sh --workload profile-compute --seed 1 --seconds 20 --trace 0
#
# Everything it builds or writes stays under .bench_build/ in the tree,
# the Go build cache included.
set -euo pipefail
build="$(pwd)/.bench_build"
mkdir -p "$build/bin" "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=
go build -o "$build/bin/" ./cmd/dragprof ./cmd/draganalyze ./cmd/dragserved
go -C perfbench build -o "$build/bin/perfbench" .
exec "$build/bin/perfbench" -bin "$build/bin" -work "$build/work" -spans "$build/spans" "$@"
