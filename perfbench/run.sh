#!/usr/bin/env bash
# Builds the benchmark and runs it with the given arguments. Run it from the
# repository root:
#
#   bash perfbench/run.sh --workload cold-dense --seed 1 --seconds 20 --trace 0
#
# The Go build cache, the binaries, daemon data and trace spans all stay
# under .bench_build/ in the root, and so does the toolchain's own config
# directory. The build fails, and nothing runs, outside a full checkout of
# the repository.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/bin" "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" \
	XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=
go build -C perfbench -o "$out/bin/perfbench" .
exec "$out/bin/perfbench" "$@"
