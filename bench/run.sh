#!/usr/bin/env bash
# run.sh — build the benchmark harness from this checkout and run it.
#
# Usage (from anywhere inside a checkout):
#
#   bash bench/run.sh --workload paper|fleet-scale|fleet-guarded|cosmos \
#       [--seed N] [--seconds S] [--trace 0|1] [--trace-dir DIR] [--input-seed N]
#
# The build cache, the build's temporary files, the go command's local
# telemetry (kept under the user config directory) and the harness binary
# stay under .bench_build/ at the repository root. The module has no external
# dependencies; the toolchain is pinned to the installed one and the module
# proxy is off so that a build never reaches for the network. The harness
# runs in the foreground (exec), so this script leaves no process behind.
set -euo pipefail

cd "$(dirname "$0")/.."
out="$PWD/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config" \
	GOTOOLCHAIN=local GOPROXY=off

go -C bench build -o "$out/jockeybench" .
exec "$out/jockeybench" "$@"
