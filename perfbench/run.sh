#!/usr/bin/env bash
# Builds the benchmark, the shardworker it launches for fabric campaigns
# and the obsview binary that validates its traces, then runs it with the
# given arguments. Run from the repository root:
#
#   bash perfbench/run.sh --workload evaluate-mnist --seed 0 --seconds 20 --trace 0
#
# Everything it builds and writes stays under .bench_build/ in the
# current directory, including the Go build cache.
set -euo pipefail

root=$(pwd)
bench=$(cd "$(dirname "$0")" && pwd)
if [ ! -f "$root/go.mod" ] || [ ! -d "$root/cmd/shardworker" ]; then
	echo "perfbench: $root is not the repository root" >&2
	exit 2
fi

out="$root/.bench_build"
mkdir -p "$out/tmp" "$out/bin"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath"
export GOTOOLCHAIN=local GOFLAGS=-mod=mod GOPROXY=off
go build -o "$out/bin/shardworker" ./cmd/shardworker
go build -o "$out/bin/obsview" ./cmd/obsview
(cd "$bench" && go build -o "$out/bin/perfbench" .)

# Not exec: the benchmark reads its children's peak RSS, which must not
# include the builds above.
"$out/bin/perfbench" -shardworker "$out/bin/shardworker" -obsview "$out/bin/obsview" -work "$out/perfbench" "$@"
