#!/usr/bin/env bash
# Builds the benchmark and runs it against the checkout that holds this
# directory. Every argument is passed on; see README.md.
#
#   bash ocdbench/run.sh --workload rows --seed 1 --seconds 45 --trace 0
#
# Build caches, binaries and the service's data dirs live under
# .bench_build at the checkout root, so a run writes nowhere else.
set -euo pipefail
here="$(cd "$(dirname "$0")" && pwd)"
root="$(dirname "$here")"
if [ ! -f "$root/go.mod" ] || [ ! -d "$root/cmd/ocdserve" ]; then
	echo "ocdbench: $root is not a checkout of the ocd module" >&2
	exit 2
fi
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/go-cache" GOMODCACHE="$build/go-mod" GOPATH="$build/go-path" \
	GOTMPDIR="$build/tmp" TMPDIR="$build/tmp" \
	XDG_CONFIG_HOME="$build/config" XDG_CACHE_HOME="$build/cache" \
	GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off
(cd "$here" && go build -buildvcs=false -o "$build/ocdbench" .)
commit="$(git -C "$root" rev-parse HEAD 2>/dev/null || echo unknown)"
if [ "$commit" != unknown ] && ! git -C "$root" diff --quiet HEAD 2>/dev/null; then
	commit="$commit+dirty"
fi
exec "$build/ocdbench" -root "$root" -commit "$commit" "$@"
