#!/usr/bin/env bash
# Builds the benchmark driver from this checkout's sources and runs it with
# the given arguments, e.g.
#
#   bash perfbench/run.sh --workload paper-fig2 --seed 1 --seconds 25 --trace 0
#
# Run it from the root of the checkout. The Go build cache, temporary files
# and the binary stay in .bench_build (or $CARGO_TARGET_DIR, when set);
# inputs and results go to .bench_runs.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
mkdir -p "${CARGO_TARGET_DIR:-.bench_build}"
build="$(cd "${CARGO_TARGET_DIR:-.bench_build}" && pwd)"
mkdir -p "$build/gocache" "$build/tmp" "$build/config"
# The go command's cache, temporary files and per-user configuration
# (telemetry counters included) all stay inside the checkout.
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config" \
	GOWORK=off GOFLAGS=-mod=mod GOTOOLCHAIN=local
go -C perfbench build -o "$build/perfbench" .
exec "$build/perfbench" "$@"
