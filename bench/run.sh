#!/usr/bin/env bash
# Driver entry point named by BENCHMARK.json; run from the root of a
# checkout:
#
#   bash bench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# It builds the harness from source into .bench_build/ at the root of
# the checkout (build cache included, so nothing is written outside the
# checkout) and hands over to it with bench/ as the working directory —
# the same place `go run -C bench .` runs it from.
set -euo pipefail
root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/go-cache" GOFLAGS=-mod=mod GOTOOLCHAIN=local GOPROXY=off
cd "$root/bench"
go build -o "$build/ledger" .
exec "$build/ledger" -out "$build" "$@"
