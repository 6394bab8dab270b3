#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build/ at the root of the
# checkout and runs it with the arguments given. Everything the go tool
# writes (build cache, temp files, telemetry) is pointed inside the
# checkout, so a run touches nothing outside it; the repeat builds are
# cache hits.
set -euo pipefail
here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
root=$(dirname "$here")
build=$root/.bench_build
mkdir -p "$build/gocache" "$build/gotmp" "$build/gopath" "$build/config"
export GOCACHE=$build/gocache GOTMPDIR=$build/gotmp
export GOPATH=$build/gopath GOMODCACHE=$build/gopath/pkg/mod
export XDG_CONFIG_HOME=$build/config GOENV=off
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=-buildvcs=auto
go -C "$here" build -o "$build/benchmark" .
cd "$root"
exec "$build/benchmark" "$@"
