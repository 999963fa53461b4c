#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it, passing every
# argument through. Run it from the repository root:
#
#   bash benchmark/run.sh --workload pernode-clique --seed 1 --seconds 15 --trace 0
#
# The build cache, temporary files and the binary stay in .bench_build/ at the
# root, so nothing is written outside the checkout.
set -euo pipefail

here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
root=$(dirname "$here")
build="$root/.bench_build"
mkdir -p "$build/tmp"

# XDG_CONFIG_HOME keeps the go command's own files (telemetry counters) in
# the build directory too.
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomod" GOTMPDIR="$build/tmp"
export XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOWORK=off GOFLAGS=

(cd "$here" && go build -o "$build/benchmark" .)
exec "$build/benchmark" "$@"
