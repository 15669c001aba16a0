#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout and runs it. Run from
# the root of a checkout: bash benchmark/run.sh --workload W --seed N ...
set -euo pipefail
root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp" "$build/home"
# Everything the Go toolchain reads or writes stays inside the checkout (its
# work directory, which defaults to /tmp, and the telemetry counters it keeps
# under the user's config directory included), so the build also works where
# the rest of the file system is read-only. Nothing is fetched: the benchmark
# imports only this repository and the standard library.
export TMPDIR="$build/tmp" GOTMPDIR="$build/tmp"
export HOME="$build/home" XDG_CONFIG_HOME="$build/home/.config" XDG_CACHE_HOME="$build/home/.cache"
export GOCACHE="$build/go-cache" GOPATH="$build/go-path" GOMODCACHE="$build/go-path/pkg/mod" GOENV=off
export GOFLAGS=-mod=readonly GOPROXY=off GOSUMDB=off GOTOOLCHAIN=local GOWORK=off
(cd "$root/benchmark" && go build -o "$build/benchmark" .)
exec "$build/benchmark" "$@"
