#!/usr/bin/env bash
# Builds shiftperf from source and runs it. Run from the repository root:
#
#   bash cmd/shiftperf/bench.sh --workload serve-index --seed 1 --seconds 20 --trace 0
#
# Every build product, the Go build cache included, stays under
# .bench_build in the current directory, so a run reads and writes
# nothing outside the checkout but the Go toolchain itself.
set -euo pipefail

out="$PWD/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/modcache" GOTMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOWORK=off GOFLAGS=

(cd cmd/shiftperf && go build -o "$out/shiftperf" .) >&2
exec "$out/shiftperf" -build-dir "$out" "$@"
