#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run from the repository
# root:
#
#	bash perfbench/run.sh --workload sweep --seed 1 --seconds 10 --trace 0
#
# Every build artifact (binary, Go build cache, Go config) stays under
# .bench_build in the current directory, so the run touches nothing
# outside the checkout. The last line of standard output is the result
# JSON; build output and progress go to standard error.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out"

(
	cd "$root/perfbench"
	GOCACHE="$out/gocache" \
		GOMODCACHE="$out/gomodcache" \
		GOPATH="$out/gopath" \
		XDG_CONFIG_HOME="$out/config" \
		GOTOOLCHAIN=local \
		GOPROXY=off \
		GOFLAGS= \
		go build -o "$out/perfbench" . >&2
)

exec "$out/perfbench" "$@"
