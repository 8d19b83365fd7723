#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout and runs it:
#
#   bash benchmark/run.sh --workload train_conv --seed 1 --seconds 18 --trace 0
#
# Everything the build and the run write stays under .bench_build/ at the
# root of the checkout (build cache, binaries, checkpoints, span files).
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."

build="$PWD/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomod" GOTMPDIR="$build/tmp"
export GOFLAGS=-mod=readonly GOPROXY=off GOTOOLCHAIN=local GOWORK=off

# The traced run binds to internal packages (benchmark/layers) and is a
# separate binary, so an internal rename cannot break the end-to-end runs.
bin="$build/benchmark" tags=""
case " $* " in
*" -trace 1 "* | *" --trace 1 "* | *"-trace=1 "*) bin="$build/benchmark-layers" tags="layers" ;;
esac

commit=$(git rev-parse --short HEAD 2>/dev/null || echo unknown)
(cd benchmark && go build -buildvcs=false -tags "$tags" -ldflags "-X main.commit=$commit" -o "$bin" .)
exec "$bin" "$@"
