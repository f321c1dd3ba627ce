#!/usr/bin/env bash
# Builds cmd/sweep, cmd/sweepd and upmbench itself from the checkout
# it is run in, then runs upmbench with the given arguments:
#
#   bash upmbench/run.sh --workload paper-w-exact --seed 1 --seconds 38 --trace 0
#
# Run it from the repository root. Every build product (binaries, the Go
# build cache) and every scratch file a run makes lives under
# .bench_build/ in that root.
set -euo pipefail

root="$(pwd)"
here="$(cd "$(dirname "$0")" && pwd)"
if [ ! -f "$root/go.mod" ] || [ ! -d "$root/cmd/sweep" ] || [ ! -d "$root/cmd/sweepd" ]; then
	echo "upmbench: $root is not the repository root (no go.mod, cmd/sweep or cmd/sweepd)" >&2
	exit 2
fi

out="$root/.bench_build"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-buildvcs=false
mkdir -p "$out/bin"
go build -o "$out/bin/" ./cmd/sweep ./cmd/sweepd >&2
go -C "$here" build -o "$out/bin/upmbench" . >&2
exec "$out/bin/upmbench" -root "$root" -bin "$out/bin" "$@"
