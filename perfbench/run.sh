#!/usr/bin/env bash
# Builds bftagd, bfproxy and the benchmark from this checkout's sources,
# then runs the benchmark with the given arguments. Run from the root of
# the checkout:
#
#   bash perfbench/run.sh --workload typing --seed 1 --seconds 10 --trace 0
#
# Everything the build and the run write stays under .bench_build/.
set -euo pipefail

root=$(pwd)
if [ ! -f "$root/perfbench/go.mod" ]; then
	echo "perfbench: run from the root of the checkout" >&2
	exit 2
fi
# A tree without the program's sources (only the benchmark) fails here,
# before any result is printed.
if [ ! -f "$root/go.mod" ] || [ ! -d "$root/cmd/bftagd" ] || [ ! -d "$root/cmd/bfproxy" ]; then
	echo "perfbench: the program's sources (go.mod, cmd/bftagd, cmd/bfproxy) are missing" >&2
	exit 2
fi

build="$root/.bench_build"
mkdir -p "$build/bin" "$build/gocache" "$build/tmp"
export GOCACHE="$build/gocache"
export GOTMPDIR="$build/tmp"
export GOTOOLCHAIN=local
export GOFLAGS=-mod=mod
export GOPROXY=off
export GOPATH="$build/gopath"
go build -o "$build/bin/bftagd" ./cmd/bftagd >&2
go build -o "$build/bin/bfproxy" ./cmd/bfproxy >&2
(cd "$root/perfbench" && go build -o "$build/bin/perfbench" .) >&2

exec "$build/bin/perfbench" -bin "$build/bin" -work "$build/runs" "$@"
