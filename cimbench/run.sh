#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it. Run from
# the root of a checkout:
#   bash cimbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
# The build and the run write only under .bench_build/ in the checkout.
set -euo pipefail
root="$(pwd)"
out="$root/.bench_build"
mkdir -p "$out"
(
	cd "$root/cimbench"
	GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config" \
		GOTOOLCHAIN=local GOPROXY=off GOFLAGS= go build -o "$out/cimbench" .
) >&2
exec "$out/cimbench" "$@"
