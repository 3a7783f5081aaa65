#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run from the repository root:
#
#   bash _perfbench/run.sh --workload lowmatch --seed 1 --seconds 20 --trace 0
#
# Every build and run artefact stays under .bench_build/ in the current
# directory: the Go build cache and temporary files, the binary, the registry
# files, the unix socket and the span files of traced runs.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache"
export GOPATH="$build/gopath"
export GOTMPDIR="$build/tmp"
export TMPDIR="$build/tmp"
export XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local

(cd "$root/_perfbench" && go build -o "$build/perfbench" .)
exec "$build/perfbench" -out .bench_build/perfbench-out "$@"
