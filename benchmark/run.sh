#!/usr/bin/env bash
# Builds the benchmark from the sources of the checkout this script lives
# in and runs it with the given arguments, e.g.
#
#   bash benchmark/run.sh --workload criteo-gmp --seed 1 --seconds 20 --trace 0
#
# The build output, the Go build cache and all scratch files stay under
# .bench_build at the checkout root.
set -euo pipefail
root=$(cd "$(dirname "$0")/.." && pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
export XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOWORK=off GOPROXY=off GOFLAGS=-buildvcs=false
go -C "$root/benchmark" build -o "$build/benchmark" .
commit=unknown
if [ -d "$root/.git" ] && command -v git >/dev/null; then
	commit=$(git -C "$root" rev-parse HEAD 2>/dev/null || echo unknown)
fi
cd "$root"
exec "$build/benchmark" --dir "$build/work" --commit "$commit" "$@"
