#!/usr/bin/env bash
# Builds the simulator CLIs and the perfbench program from the checkout in
# the current directory, then runs perfbench with the given arguments:
#
#   bash perfbench/run.sh --workload canneal64 --seed 1 --seconds 35 --trace 0
#
# Everything the build and the runs write stays under .bench_build/ in the
# checkout: the Go build cache, temporary files, binaries and trace files.
set -euo pipefail

if [ ! -f go.mod ] || [ ! -d cmd ] || [ ! -d internal ]; then
	echo "perfbench: run from the root of a repository checkout" >&2
	exit 2
fi

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/bin" "$out/work"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath"
export GOTOOLCHAIN=local GOPROXY=off GOSUMDB=off

go build -o "$out/bin/" ./cmd/tsocc-bench ./cmd/tsocc-sim ./cmd/tsocc-trace
(cd perfbench && go build -o "$out/bin/" . ./launch)

exec "$out/bin/perfbench" -bin "$out/bin" -work "$out/work" "$@"
