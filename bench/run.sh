#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout and runs it with the
# given arguments. Everything the build and the run write — Go's build cache,
# its temporary files, the binary, journals, the trace — stays under
# .bench_build in the current directory, which must be the repository root.
set -euo pipefail

build="$PWD/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/go-cache" GOTMPDIR="$build/tmp" GOTOOLCHAIN=local
go build -C bench -o "$build/fisql-bench" . >&2
exec "$build/fisql-bench" "$@"
