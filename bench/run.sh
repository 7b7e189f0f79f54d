#!/usr/bin/env bash
# The command BENCHMARK.json names. It keeps everything the toolchain and the
# benchmark write inside the checkout it is run from: the build cache, the
# binary `go run` links, the pochoird build and the spill journals all land
# under .bench_build/. Developers can call `go run ./bench` directly.
set -euo pipefail
build="$PWD/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" TMPDIR="$build/tmp"
exec go run ./bench "$@"
