#!/usr/bin/env bash
# Builds the benchmark driver from source and runs it. Run from the
# repository root:
#
#   bash perfbench/run.sh --workload fig5-dcm --seed 42 --seconds 25 --trace 0
#
# Every build product (Go build cache, temporary files, the driver binary)
# and every output (span logs) stays under .bench_build/ in the working
# directory.
set -euo pipefail
# Fall back to the official installer's location when go is not on PATH.
command -v go >/dev/null || PATH="$PATH:/usr/local/go/bin"
out="$(pwd)/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config" \
	GOPATH="$out/gopath" GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=
go -C perfbench build -o "$out/perfbench" .
exec "$out/perfbench" "$@"
