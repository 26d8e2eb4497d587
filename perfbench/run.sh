#!/usr/bin/env bash
# Builds the simulator binaries and the benchmark from source, then runs one
# benchmark workload. Run it from the repository root:
#
#   bash perfbench/run.sh --workload paper-figures --seed 1 --seconds 20 --trace 0
#
# Everything the build and the run write goes under .bench_build/ in the
# repository root (Go build cache included), so nothing outside the checkout
# is touched. Build output goes to standard error; standard output ends with
# the benchmark's one-line JSON result.
set -euo pipefail

if [[ ! -f go.mod || ! -d cmd/figures || ! -f perfbench/go.mod ]]; then
	echo "perfbench: run from the repository root (simulator sources not found)" >&2
	exit 1
fi

out="$PWD/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config"
export GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOFLAGS= GOWORK=off CGO_ENABLED=0

go build -o "$out/bin/" ./cmd/figures ./cmd/oltpsim ./cmd/oltpserver >&2
go -C perfbench build -o "$out/bin/perfbench" . >&2
exec "$out/bin/perfbench" "$@"
