#!/usr/bin/env bash
# Builds the fleet-replay benchmark from the sources of the checkout it
# is run from, then runs it with the given arguments:
#
#	bash fleetbench/run.sh --workload diurnal --seed 42 --seconds 10 --trace 0
#
# Run it from the repository root. Build outputs, the Go build cache and
# the span files of traced runs go under $CARGO_TARGET_DIR (default
# .bench_build), so nothing is written outside the checkout.
set -euo pipefail
root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in
/*) ;;
*) out=$root/$out ;;
esac
out=$out/fleetbench
mkdir -p "$out"
export GOCACHE=$out/gocache GOPATH=$out/gopath XDG_CONFIG_HOME=$out/config GOTOOLCHAIN=local
go -C "$root/fleetbench" build -o "$out/fleetbench" . >&2
exec "$out/fleetbench" --out-dir "$out" "$@"
