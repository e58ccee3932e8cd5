#!/usr/bin/env bash
# Builds the benchmark and runs it, from the root of a branchlab
# checkout:
#
#   bash perfbench/run.sh --workload registry-quick --seed 0 --seconds 10 --trace 0
#
# The Go build cache and every scratch file live under .bench_build in
# the checkout. The first run in a fresh checkout compiles everything;
# later runs reuse the cache.
set -euo pipefail

if [[ ! -f go.mod || ! -d internal/experiments || ! -f perfbench/go.mod ]]; then
	echo "perfbench: run from the root of a branchlab checkout" >&2
	exit 1
fi
root=$PWD
build="$root/.bench_build"
bin="$build/perfbench/perfbench"
# XDG_CONFIG_HOME keeps the go command's config and telemetry files in
# the checkout too.
(
	cd perfbench
	GOCACHE="$build/gocache" GOPATH="$build/gopath" GOMODCACHE="$build/gopath/pkg/mod" \
		XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOWORK=off GOFLAGS= \
		go build -o "$bin" .
)
exec "$bin" "$@"
