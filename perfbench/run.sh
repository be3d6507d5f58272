#!/usr/bin/env bash
# Builds the benchmark from the checkout it sits in and runs it, passing
# every argument through:
#
#   bash perfbench/run.sh --workload water-failure --seed 1 --seconds 10 --trace 0
#
# The Go build cache, the binary and the traced pass's span and trace
# files all go to .bench_build/ at the root of the checkout, so nothing is
# read or written outside it. The build fails, and the script exits
# non-zero without printing a result, when the program's sources are not
# next to the benchmark.
set -euo pipefail

bench_dir=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
build="$(dirname "$bench_dir")/.bench_build"
mkdir -p "$build/tmp" "$build/out"

export GOCACHE="$build/gocache"
export GOPATH="$build/gopath"
export GOTMPDIR="$build/tmp"
export TMPDIR="$build/tmp"
export XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local

go -C "$bench_dir" build -o "$build/perfbench" . >&2
exec "$build/perfbench" --out "$build/out" "$@"
