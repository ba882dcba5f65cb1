#!/usr/bin/env bash
# Builds the end-to-end benchmark against the checkout it sits in, then runs
# it with the given arguments. Run from the repository root:
#
#   bash e2ebench/run.sh --workload serve-micro --seed 1 --seconds 20 --trace 0
#
# Build outputs, the Go build cache and scratch files stay under the build
# directory ($CARGO_TARGET_DIR if set, else .bench_build), so a run reads and
# writes only inside the checkout.
set -euo pipefail

root=$(pwd)
here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
build=${CARGO_TARGET_DIR:-.bench_build}
case $build in /*) ;; *) build=$root/$build ;; esac
mkdir -p "$build/tmp" "$build/e2ebench"

export GOCACHE=$build/gocache GOPATH=$build/gopath GOTMPDIR=$build/tmp TMPDIR=$build/tmp
export XDG_CONFIG_HOME=$build/config GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=

go -C "$here" build -o "$build/e2ebench/e2ebench" .
exec "$build/e2ebench/e2ebench" --out "$build/e2ebench" "$@"
