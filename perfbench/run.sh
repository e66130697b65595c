#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run from the repository root:
#
#	bash perfbench/run.sh --workload ftr3-cycles --seed 1 --seconds 30 --trace 0
#
# Everything the build and the run write stays under .bench_build/ in the
# current directory. Without the repository's Go module next to perfbench/
# the build fails and the script exits non-zero before printing a result.
set -euo pipefail

root="$(pwd)"
out="${CARGO_TARGET_DIR:-.bench_build}"
case "$out" in /*) ;; *) out="$root/$out" ;; esac
mkdir -p "$out"

export GOCACHE="$out/gocache"
export GOPATH="$out/gopath"
export GOMODCACHE="$out/gopath/pkg/mod"
export GOFLAGS=
export GOPROXY=off
export GOTOOLCHAIN=local
export XDG_CONFIG_HOME="$out/config"
export XDG_CACHE_HOME="$out/cache"

(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" --workdir "$out" "$@"
