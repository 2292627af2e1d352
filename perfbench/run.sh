#!/usr/bin/env bash
# Builds melserved, melproxy and the perfbench harness from the source in
# the current directory (the repository root), then runs the harness with
# the given arguments:
#
#   bash perfbench/run.sh --workload raw_unique --seed 1 --seconds 10 --trace 0
#
# Every build product, the Go build cache and the span dumps stay under
# .bench_build in the repository root.
set -euo pipefail

if [[ ! -f go.mod || ! -d cmd/melserved || ! -d cmd/melproxy || ! -f perfbench/go.mod ]]; then
	echo "perfbench: run from the repository root (cmd/melserved, cmd/melproxy not found)" >&2
	exit 2
fi

out="$PWD/.bench_build"
mkdir -p "$out/bin" "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod" \
	GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOFLAGS=

go build -o "$out/bin/" ./cmd/melserved ./cmd/melproxy >&2
(cd perfbench && go build -o "$out/bin/perfbench" .) >&2

exec "$out/bin/perfbench" -bin "$out/bin" "$@"
