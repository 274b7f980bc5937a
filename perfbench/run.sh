#!/usr/bin/env bash
# Builds the benchmark from the source tree around it and runs one
# workload:
#
#   bash perfbench/run.sh --workload deploy-small --seed 1 --seconds 30 --trace 0
#
# Run from the root of the repository. The binary, the Go build cache and
# the Go tool's own state stay in .bench_build (or $CARGO_TARGET_DIR), so
# nothing is written outside the tree. Build output goes to standard
# error; the result stays the last line of standard output.
set -euo pipefail
root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
mkdir -p "$out/tmp" "$out/config"
out=$(cd "$out" && pwd)
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath"
export GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOWORK=off GOFLAGS=
(cd "$root/perfbench" && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" "$@"
