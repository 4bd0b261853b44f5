#!/usr/bin/env bash
# run.sh — build the benchmark from source and run one workload.
#
# Usage, from the repository root:
#   bash bench/run.sh --workload sweep --seed 1 --seconds 20 --trace 0
#
# Everything the build and the run write stays in .bench_build/ under the
# repository root: the Go build cache, the binaries, the stores, the run
# records and the traces.  podcbench builds podcserve there itself.
set -euo pipefail

root="$(pwd)"
if [ ! -f "$root/go.mod" ] || [ ! -f "$root/bench/go.mod" ] || [ ! -d "$root/cmd/podcserve" ]; then
    echo "run.sh: run from the repository root (bench/ and the module it measures must both be present)" >&2
    exit 2
fi

out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath"
export GOTOOLCHAIN=local GOFLAGS= GOWORK=off GOENV=off

go -C "$root/bench" build -buildvcs=false -o "$out/podcbench" ./cmd/podcbench
exec "$out/podcbench" -out "$out" "$@"
