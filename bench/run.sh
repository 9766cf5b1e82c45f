#!/usr/bin/env bash
# The command BENCHMARK.json names: build the benchmark from source and run
# it, keeping the Go build cache and temporary files inside the checkout.
# Arguments go to the benchmark unchanged (see README.md). Run it from the
# root of the repository.
set -euo pipefail
mkdir -p .bench_build/tmp
export GOCACHE="$PWD/.bench_build/gocache" GOTMPDIR="$PWD/.bench_build/tmp" GOFLAGS="${GOFLAGS:-} -buildvcs=false"
go build -o .bench_build/ic2mpi-bench ./bench
exec .bench_build/ic2mpi-bench -out .bench_build/out "$@"
