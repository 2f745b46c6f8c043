#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given flags, from
# the repository root:
#
#   bash bench/run.sh -workload sim-paper -seed 1 -seconds 15 -trace 0
#
# The Go build cache, the build's temporary files and the binary all live
# under .bench_build/ at the repository root, so nothing is written
# outside the checkout.
set -euo pipefail
cd "$(dirname "$0")/.."
out="$PWD/.bench_build"
mkdir -p "$out/gocache" "$out/gotmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOMODCACHE="$out/gomod" \
	GOTOOLCHAIN=local GOENV=off GOWORK=off GOFLAGS=
(cd bench && go build -o "$out/hbmbench" .)
exec "$out/hbmbench" "$@"
