#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments.
# Everything the build leaves behind — the binary, the Go build cache, an
# (empty) module cache — stays under .bench_build in the checkout, beside
# the traces a -trace 1 run writes there.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
out="$root/.bench_build"
mkdir -p "$out"

export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath"
export GOFLAGS=-mod=mod GOTOOLCHAIN=local GOENV=off GOWORK=off

(cd "$here" && go build -o "$out/sjbench" .)
cd "$root"
exec "$out/sjbench" "$@"
