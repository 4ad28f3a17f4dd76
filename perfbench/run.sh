#!/usr/bin/env bash
# Builds the repository benchmark from source and runs it. Run from the
# repository root, e.g.
#
#   bash perfbench/run.sh --workload serve-ft --seed 1 --seconds 30 --trace 0
#
# Everything the build and the run write (Go build cache, binary, result
# files) stays under .bench_build/ in the current directory. Outside a
# full checkout the build fails and the script exits non-zero.
set -euo pipefail

root=$PWD
out="$root/.bench_build"
mkdir -p "$out/tmp"
# The go command's caches, temporary files and telemetry counters all go
# under $out; no network is used.
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export XDG_CONFIG_HOME="$out/config" XDG_CACHE_HOME="$out/cache"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=

(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" -results "$out/results" "$@"
