#!/usr/bin/env bash
# Builds the benchmark from the sources in this checkout and runs it:
#
#   bash perfbench/run.sh --workload fb_ugal_ioq --seed 1 --seconds 50 --trace 0
#
# Run from the repository root. The build cache, temporary files and the
# binary stay under .bench_build/ in the checkout.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -d "$root/internal" || ! -f "$root/perfbench/go.mod" ]]; then
	echo "perfbench: run from the repository root (no simulator sources here)" >&2
	exit 2
fi
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp"
# Local toolchain and sources only: no downloads, no edits to go.mod.
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOFLAGS= GOTOOLCHAIN=local GOPROXY=off
unset GOGC GODEBUG GOMAXPROCS

# The commit the sources came from, or a digest of them outside a git
# checkout.
commit=
if [[ -d "$root/.git" ]]; then
	commit=$(git -C "$root" rev-parse --short=12 HEAD 2>/dev/null || true)
fi
if [[ -z "$commit" ]]; then
	commit="src-$(cd "$root" && find go.mod internal -type f -name '*.go' -o -name go.mod | LC_ALL=C sort |
		xargs sha256sum | sha256sum | cut -c1-12)"
fi

(cd "$root/perfbench" && go build -trimpath -ldflags "-X main.commit=$commit" -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
