#!/bin/sh
# Builds the wall-clock benchmark from this checkout and runs it:
#
#   sh perfbench/run.sh --workload grid-cold --seed 1 --seconds 10 --trace 0
#   sh perfbench/run.sh --workload all --seed 1
#
# Run it from the repository root. The binary, the Go build cache and every
# file a workload writes stay under .bench_build/ there. The module has no
# dependencies outside the repository, so the build needs no network.
set -eu

if [ ! -f go.mod ] || [ ! -f perfbench/go.mod ]; then
	echo "perfbench: run from the repository root; go.mod is missing here" >&2
	exit 2
fi

out="$(pwd)/.bench_build"
mkdir -p "$out/tmp"
# XDG_CONFIG_HOME keeps the go command's settings and telemetry files here too.
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config" GOPROXY=off GOFLAGS=
(cd perfbench && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
