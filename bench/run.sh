#!/bin/sh
# Builds disassobench from this checkout and runs it with the given flags.
# Run from the repository root:
#
#   bash bench/run.sh --workload read-zipf --seed 1 --seconds 12 --trace 0
#
# Everything the Go toolchain writes stays under .bench_build/ in the
# checkout: build products, the build cache, temporary files, GOPATH and the
# user configuration directory (where the toolchain keeps its local
# telemetry counters). The toolchain is the local one; nothing is
# downloaded.
set -eu
root=$(pwd)
b="$root/.bench_build"
GOCACHE="$b/gocache"
GOTMPDIR="$b/gotmp"
GOPATH="$b/gopath"
XDG_CONFIG_HOME="$b/config"
GOTOOLCHAIN=local
GOFLAGS=
GOWORK=off
export GOCACHE GOTMPDIR GOPATH XDG_CONFIG_HOME GOTOOLCHAIN GOFLAGS GOWORK
mkdir -p "$GOTMPDIR"
(cd bench && go build -o "$b/disassobench" ./disassobench)
exec "$b/disassobench" "$@"
