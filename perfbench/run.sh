#!/usr/bin/env bash
# Builds spserve and the perfbench benchmark from the checkout it is run in,
# then runs the benchmark with the given arguments. Run it from the
# repository root:
#
#   bash perfbench/run.sh --workload ch-distance --seed 1 --seconds 10 --trace 0
#
# Every build output, Go cache and index file stays under .bench_build/.
set -euo pipefail

if [[ ! -f go.mod || ! -d cmd/spserve || ! -f perfbench/go.mod ]]; then
	echo "perfbench: run from the repository root (go.mod, cmd/spserve and perfbench/go.mod are needed)" >&2
	exit 2
fi

out="$PWD/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOTOOLCHAIN=local GOWORK=off GOFLAGS=

go build -o "$out/spserve" ./cmd/spserve
(cd perfbench && go build -o "$out/perfbench" .)
exec "$out/perfbench" -spserve "$out/spserve" -workdir "$out/work" "$@"
