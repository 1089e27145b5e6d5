#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs it in place of
# this shell (exec), so the caller's process is the benchmark itself. Run
# from the repository root:
#
#   bash perfbench/run.sh --workload live_ingest --seed 1 --seconds 20 --trace 0
#
# Every file the build and the run write stays under .bench_build/: the Go
# build cache, the toolchain's scratch and config directories, the binary,
# the run's temporary directory and any trace output.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gotmp" "$out/config" "$out/gopath"
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" XDG_CONFIG_HOME="$out/config" \
	GOPATH="$out/gopath" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=readonly GOWORK=off
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" --workdir "$out" "$@"
