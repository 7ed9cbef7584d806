#!/usr/bin/env bash
# run.sh — build the benchmark harness from source and run it.
#
# BENCHMARK.json names this script as the benchmark command; the
# driver calls it from the root of a checkout as
#
#   bash bench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# Everything the Go toolchain writes (build cache, module cache,
# telemetry, the binary) is pointed inside <checkout>/.bench_build, so
# a run reads and writes only inside its checkout. The first call in a
# checkout compiles (tens of seconds); later calls hit the cache.
set -euo pipefail

here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
build="$(pwd)/.bench_build"
mkdir -p "$build"

export GOCACHE="$build/gocache"
export GOPATH="$build/gopath"
export GOMODCACHE="$build/gopath/pkg/mod"
export XDG_CONFIG_HOME="$build/config" # go telemetry and go/env live here
export GOFLAGS=-buildvcs=false
export GOPROXY=off GOTOOLCHAIN=local GOWORK=off

# Build output goes to stderr: stdout is reserved for the result.
(cd "$here" && go build -o "$build/mpq-bench" .) 1>&2

exec "$build/mpq-bench" "$@"
