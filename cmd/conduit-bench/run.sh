#!/usr/bin/env bash
# Entry point of BENCHMARK.json: builds conduit-bench from the checkout's
# source and runs it with the arguments given. Everything the build
# writes (the binary and Go's build cache) stays under .bench_build in
# the checkout, so a run touches nothing outside it and needs no $HOME.
set -euo pipefail
out="$PWD/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOTOOLCHAIN=local
go build -o "$out/conduit-bench" ./cmd/conduit-bench
exec "$out/conduit-bench" "$@"
