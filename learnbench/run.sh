#!/usr/bin/env bash
# Builds the learnbench command from the sources of the checkout this
# script sits in, then runs it with the given arguments, e.g.
#
#   bash learnbench/run.sh --workload castor-hiv --seed 1 --seconds 30 --trace 0
#
# The build cache and the binary stay inside the checkout, under
# .bench_build; the benchmark writes its span files there too.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="" GOWORK=off GOFLAGS="" GOTOOLCHAIN=local
(cd "$root/learnbench" && go build -o "$build/learnbench" .)
cd "$root"
exec "$build/learnbench" "$@"
