#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout and runs it; every
# argument goes to the binary (see bench/README.md). Run from the repo root:
#
#   bash bench/run.sh --workload bdcc_serial --seed 1 --seconds 12 --trace 0
#
# Everything the Go toolchain writes — build cache, temporary files, its
# telemetry counters — is kept under .bench_build/ in the checkout.
set -euo pipefail
root=$PWD
out=$root/.bench_build
mkdir -p "$out/tmp"
export GOCACHE=$out/gocache GOTMPDIR=$out/tmp XDG_CONFIG_HOME=$out/config
export GOTOOLCHAIN=local GOPROXY=off
go build -C "$root/bench" -o "$out/bdccbench" .
exec "$out/bdccbench" "$@"
