#!/usr/bin/env bash
# Builds the benchmark into .bench_build/ at the root of the checkout
# and runs it there; every flag is passed through. Nothing outside the
# checkout is written: the Go build cache lives in .bench_build too.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
out="$root/.bench_build/planar-benchmark"
mkdir -p "$out"
export GOCACHE="$root/.bench_build/go-cache" GOPATH="$root/.bench_build/go-path"
export GOENV=off GOTOOLCHAIN=local GOFLAGS=-mod=readonly
(cd benchmark && go build -o "$out/bench" .)
exec "$out/bench" "$@"
