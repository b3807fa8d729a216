#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs it. Run it from
# the repository root; every argument goes to the benchmark:
#
#   bash perfbench/run.sh --workload calls-sharded --seed 1 --seconds 10 --trace 0
#
# The build cache, the binary and the traced run's span files all stay under
# .bench_build/ in the checkout.
set -euo pipefail

root="$(pwd)"
if [ ! -f "$root/go.mod" ] || [ ! -d "$root/internal" ] || [ ! -f "$root/perfbench/go.mod" ]; then
	echo "perfbench: run from the root of a Switchboard checkout" >&2
	exit 2
fi
build="$root/.bench_build"
mkdir -p "$build/cache" "$build/tmp" "$build/home" "$build/gopath"
export GOCACHE="$build/cache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath"
export HOME="$build/home" XDG_CONFIG_HOME="$build/home/.config"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=-mod=readonly
(cd "$root/perfbench" && go build -trimpath -o "$build/perfbench" .)
exec "$build/perfbench" "$@"
