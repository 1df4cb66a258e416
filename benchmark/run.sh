#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout and runs it. Called
# from the repository root, as BENCHMARK.json's command does:
#
#   bash benchmark/run.sh --workload tcp-steady --seed 1 --seconds 15 --trace 0
#
# Everything the build and the run write — Go's build cache, the binary,
# WAL directories, the span file — stays under .bench_build in the checkout.
set -euo pipefail

root="$PWD"
build="$root/.bench_build"
mkdir -p "$build/tmp" "$build/gocache" "$build/gopath" "$build/config"

# os.MkdirTemp is where the WALs go (as in the scenario engine), so TMPDIR
# picks the filesystem whose fsync the benchmark measures: the checkout's.
# The Go tool's own work directories land there too.
export TMPDIR="$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local GOWORK=off GOFLAGS=
before="$(stat -c %Y "$build/tetrabench" 2>/dev/null || true)"
go build -C "$root/benchmark" -o "$build/tetrabench" .
if [ "$before" != "$(stat -c %Y "$build/tetrabench")" ]; then
	# A fresh build leaves ~100 MB of dirty pages; their write-back would
	# compete with the WAL's fsyncs for the first seconds of the run.
	sync
fi

exec "$build/tetrabench" "$@"
