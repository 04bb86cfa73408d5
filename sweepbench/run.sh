#!/usr/bin/env bash
# Builds the sweep benchmark from the checkout this script lives in and runs
# it, passing every argument through. Run from the checkout root:
#
#   bash sweepbench/run.sh --workload xqvr-mult12 --seed 1 --seconds 20 --trace 0
#
# Build outputs (binary, Go build cache, per-run state dirs) stay under
# .bench_build/ in the checkout. Outside a full checkout the build fails and
# the script exits non-zero without printing a result.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=
(cd "$here" && go build -o "$out/sweepbench" .)
cd "$root"
exec "$out/sweepbench" "$@"
