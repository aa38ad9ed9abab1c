#!/usr/bin/env bash
# Builds the performance ledger (perf/e2e) from source inside the checkout
# and runs it with the given flags, from the repository root. Everything the
# build writes (binary, Go build cache, temp files) stays under .bench_build/.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomod" GOTMPDIR="$build/tmp" GOTOOLCHAIN=local
go build -C perf -o "$build/e2e" ./e2e
exec "$build/e2e" "$@"
