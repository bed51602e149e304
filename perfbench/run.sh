#!/usr/bin/env bash
# Builds the benchmark from the enclosing checkout and runs it.
# Usage, from the checkout root:
#   bash perfbench/run.sh --workload steady --seed 1 --seconds 20 --trace 0
# The binary, the Go build cache, temporary files and the Go command's
# home directory all stay under $CARGO_TARGET_DIR (default .bench_build)
# inside the checkout. Outside a full checkout the build fails.
set -euo pipefail
root=$(pwd)
here=$(cd "$(dirname "$0")" && pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in /*) ;; *) out=$root/$out ;; esac
mkdir -p "$out/tmp" "$out/home"
(
	cd "$here"
	export HOME=$out/home XDG_CONFIG_HOME=$out/home/.config XDG_CACHE_HOME=$out/home/.cache
	export GOCACHE=$out/go-cache GOMODCACHE=$out/go-mod GOTMPDIR=$out/tmp TMPDIR=$out/tmp
	export GOTOOLCHAIN=local GOWORK=off GOFLAGS=-mod=readonly GOPROXY=off
	go build -o "$out/perfbench" .
)
exec "$out/perfbench" --out "$here/results" "$@"
