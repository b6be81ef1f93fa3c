#!/usr/bin/env bash
# Builds the end-to-end benchmark from the checkout's sources and runs it.
# Run from the repository root:
#
#   bash e2ebench/run.sh --workload replay_sim --seed 1 --seconds 20 --trace 0
#
# Everything the build and the run write (Go build cache, binary, scratch
# stores) stays under .bench_build/ in the current directory. Outside a full
# checkout the build fails, and so does this script, before any result is
# printed.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/gotmp" "$build/gopath" "$build/home"
export GOCACHE="$build/gocache" GOTMPDIR="$build/gotmp" GOPATH="$build/gopath"
export TMPDIR="$build/gotmp" GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off GOENV=off
# The go command keeps its config and telemetry under the user's home.
export HOME="$build/home" XDG_CONFIG_HOME="$build/home/.config" XDG_CACHE_HOME="$build/home/.cache"
# The pipeline honours these; the benchmark fixes scale and store itself.
unset SPECSIM_SCALE SPECSIM_CACHE SPECSIM_ALL

(cd "$root/e2ebench" && go build -o "$build/e2ebench" .)
exec "$build/e2ebench" -workdir "$build/work" "$@"
