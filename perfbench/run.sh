#!/usr/bin/env bash
# Builds the benchmark from the checkout it is run in, then runs it:
#
#   bash perfbench/run.sh --workload batch-dense --seed 1 --seconds 10 --trace 0
#
# Run from the repository root. Everything the build and the run write
# (Go build cache, binary, graph layouts, traces) stays under
# ${CARGO_TARGET_DIR:-.bench_build} in the current directory.
set -euo pipefail

out="${CARGO_TARGET_DIR:-.bench_build}"
mkdir -p "$out"
out="$(cd "$out" && pwd)"

export GOCACHE="$out/gocache"
export GOPATH="$out/gopath"
export GOMODCACHE="$out/gopath/pkg/mod"
export GOTOOLCHAIN=local
export GOPROXY=off
export GOFLAGS=-mod=readonly
export GOWORK=off

(cd perfbench && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" -workdir "$out" "$@"
