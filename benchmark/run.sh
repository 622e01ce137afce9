#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the arguments given,
# from the root of the checkout. Everything the build leaves behind,
# the Go build cache included, goes under .bench_build/ in the checkout.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-buildvcs=false
(cd "$here" && go build -o "$out/snowplow-benchmark" .)
cd "$root"
exec "$out/snowplow-benchmark" "$@"
