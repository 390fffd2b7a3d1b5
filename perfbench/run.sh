#!/usr/bin/env bash
# Builds ocpserve and the perfbench driver from the checkout's sources,
# then runs the driver with the given arguments. Run from the repository
# root:
#
#   bash perfbench/run.sh --workload churn --seed 1 --seconds 30 --trace 0
#
# Every build product, cache and temporary file stays under .bench_build
# in the checkout; the toolchain never touches the network.
set -euo pipefail

[ -f go.mod ] && [ -d cmd/ocpserve ] || { echo "run.sh: run from the repository root" >&2; exit 1; }

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/bin" "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOMODCACHE="$build/gomod" \
	GOPROXY=off GOTOOLCHAIN=local GOFLAGS= GOWORK=off GOENV=off
go build -o "$build/bin/ocpserve" ./cmd/ocpserve
(cd perfbench && go build -o "$build/bin/perfbench" .)
exec "$build/bin/perfbench" --server "$build/bin/ocpserve" --dir "$build/perfbench" "$@"
