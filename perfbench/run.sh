#!/usr/bin/env bash
# Builds the benchmark from the sources of this checkout and runs it with
# the given flags. Run it from the root of the checkout:
#
#	bash perfbench/run.sh --workload cluster --seed 1 --seconds 20 --trace 0
#
# Everything the build leaves behind goes under .bench_build/.
set -euo pipefail
root="$(pwd)"
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath"
export GOPROXY=off GOFLAGS= GOWORK=off GOTOOLCHAIN=local
go -C "$root/perfbench" build -o "$out/perfbench" . >&2
exec "$out/perfbench" "$@"
