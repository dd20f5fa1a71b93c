#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build/ of the current
# checkout and runs it with the given arguments. Run from the repository
# root:
#
#	bash perfbench/run.sh --workload mixed --seed 1 --seconds 10 --trace 0
#	bash perfbench/run.sh --diff before.txt after.txt
#
# Every Go cache the build needs lives under .bench_build/, so the run
# writes nothing outside the checkout.
set -euo pipefail
root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTOOLCHAIN=local GOFLAGS=
(cd "$root/perfbench" && go build -o "$build/perfbench" .) >&2
exec "$build/perfbench" "$@"
