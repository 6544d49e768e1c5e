#!/usr/bin/env bash
# Builds fleetbench from the checkout it sits in and runs it:
#
#   bash fleetbench/run.sh --workload route-1k --seed 11 --seconds 20 --trace 0
#
# Everything the build writes (binary, Go build cache, temp files) stays
# under .bench_build/ at the checkout root, or under $CARGO_TARGET_DIR
# when that is set. A checkout without the program's sources fails the
# build, so the script exits non-zero without printing a result.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
out="${CARGO_TARGET_DIR:-.bench_build}"
case "$out" in /*) ;; *) out="$root/$out" ;; esac
mkdir -p "$out/gocache" "$out/tmp" "$out/gopath"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" \
	GOPROXY=off GOTOOLCHAIN=local GOFLAGS= GOENV=off
(cd "$here" && go build -o "$out/fleetbench" .)
exec "$out/fleetbench" "$@"
