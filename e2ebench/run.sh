#!/usr/bin/env bash
# Builds e2ebench from this checkout and runs it, passing every argument
# through:
#
#   bash e2ebench/run.sh --workload live-4k --seed 1 --seconds 40 --trace 0
#
# Run it from the repository root. Build caches, stores, spans and
# reports stay under $CARGO_TARGET_DIR (default .bench_build) inside the
# checkout.
set -euo pipefail
build=${CARGO_TARGET_DIR:-.bench_build}
case "$build" in
/*) ;;
*) build="$PWD/$build" ;;
esac
mkdir -p "$build/tmp" "$build/config"
export GOCACHE="$build/go-cache" GOMODCACHE="$build/go-mod" GOPATH="$build/go-path"
export TMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=
(cd e2ebench && go build -o "$build/e2ebench" .)
exec "$build/e2ebench" --work "$build/e2ebench-work" "$@"
