#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build/ of the checkout it
# is run from and runs it with the arguments given. Everything the go
# tool writes (build cache, module path, telemetry counters, its work
# directory) is pointed inside .bench_build/, so nothing is written
# outside the checkout.
#
#   bash benchmark/run.sh --workload ingest-sparse --seed 1 --seconds 20 --trace 0
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build/tmp"
(
	cd "$here"
	export GOCACHE="$build/gocache" GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config" GOTMPDIR="$build/tmp"
	# -buildvcs=false: the checkout is not a repository, and a directory
	# above it that is one must not decide whether the build succeeds.
	export GOENV=off GOFLAGS=-buildvcs=false GOTOOLCHAIN=local
	go build -o "$build/tencentrec-benchmark" .
)
cd "$root"
exec "$build/tencentrec-benchmark" "$@"
