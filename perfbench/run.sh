#!/usr/bin/env bash
# Builds the benchmark from the sources of the checkout it is run in,
# then runs it with the given arguments. Run from the repository root:
#
#   bash perfbench/run.sh --workload update --seed 1 --seconds 20 --trace 0
#
# Every build product, cache and scratch file stays under .bench_build
# in the checkout. Without the repository's sources next to perfbench/
# the build fails and the script exits non-zero without a result.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -d "$root/perfbench" ]]; then
	echo "perfbench: run from the repository root" >&2
	exit 2
fi
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
