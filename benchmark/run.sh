#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs it with the
# given arguments, from the checkout root:
#
#   bash benchmark/run.sh --workload hot-cache --seed 1 --seconds 10 --trace 0
#
# The build cache, the binary, span files and scratch files all go under
# .bench_build/ at the checkout root; nothing is read or written elsewhere
# and nothing is fetched over the network.
set -euo pipefail
cd "$(dirname "$0")/.."
out=$PWD/.bench_build
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config" \
	GOFLAGS=-mod=readonly GOPROXY=off GOTOOLCHAIN=local GOWORK=off
(cd benchmark && go build -o "$out/dccs-benchmark" .)
exec "$out/dccs-benchmark" "$@"
