#!/usr/bin/env bash
# Builds the benchmark from the sources of this checkout and runs it with
# the given arguments, e.g.
#
#   bash perfbench/run.sh --workload jobs_1cpu --seed 1 --seconds 10 --trace 0
#
# Every build product, cache and output stays inside the checkout:
# .bench_build/ holds the Go build cache and the binary, .bench_out/ the
# spans and CPU profiles of traced runs.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(cd "$here/.." && pwd)"
build="$root/.bench_build"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomod" GOPATH="$build/gopath"
export GOTMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local GOWORK=off GOFLAGS=-buildvcs=false
mkdir -p "$GOTMPDIR" "$XDG_CONFIG_HOME"
(cd "$here" && go build -o "$build/perfbench" .)
exec "$build/perfbench" --out "$root/.bench_out" "$@"
