#!/usr/bin/env bash
# Builds the serving benchmark from this checkout's sources and runs it
# with the given arguments, e.g.
#
#   bash perfbench/run.sh --workload chat --seed 1 --seconds 45 --trace 0
#
# Run it from the repository root. The binary and the Go build cache stay
# under .bench_build/.
set -euo pipefail
out="$PWD/.bench_build"
mkdir -p "$out/gocache" "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOENV=off GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=
(cd perfbench && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
