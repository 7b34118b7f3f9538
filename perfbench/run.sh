#!/usr/bin/env bash
# Builds the benchmark and the repository's commands from the checkout it is
# started in, then runs one workload. Run it from the checkout root:
#
#   bash perfbench/run.sh --workload sweep-wired --seed 1 --seconds 20 --trace 0
#
# Everything it builds or writes (Go build cache, binaries, span files,
# server logs) stays under .bench_build/ in the checkout. Build output goes
# to standard error; the last line of standard output is the result.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/bin"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod"
export XDG_CONFIG_HOME="$out/config" XDG_CACHE_HOME="$out/cache"
export GOTOOLCHAIN=local GOFLAGS= GOENV=off

# wisync-server resolves its worker next to itself, so every command is
# built into one directory.
go build -o "$out/bin/" ./cmd/... >&2
go build -C perfbench -o "$out/bin/perfbench" . >&2

exec "$out/bin/perfbench" -root "$root" -bin "$out/bin" -out "$out/out" "$@"
