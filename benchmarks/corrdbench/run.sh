#!/usr/bin/env bash
# Builds the harness and runs it from the checkout root. Everything the
# build and the run write — the go build cache included — stays under
# .bench_build in the checkout.
set -euo pipefail
root=$(pwd)
here=$(dirname "$0")
export GOCACHE="$root/.bench_build/gocache" GOTOOLCHAIN=local GOFLAGS=-mod=mod
mkdir -p "$root/.bench_build/corrdbench"
go build -C "$here" -o "$root/.bench_build/corrdbench/corrdbench" .
exec "$root/.bench_build/corrdbench/corrdbench" "$@"
