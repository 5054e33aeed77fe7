#!/usr/bin/env bash
# Builds the benchmark from the tree and runs it; the benchmark builds
# cmd/chronosd itself. Everything the toolchain writes (build cache, temp
# files, binaries, per-run data dirs) stays under .bench_build/ in the
# checkout this script lives in.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
if [ ! -f "$root/go.mod" ] || [ ! -d "$root/cmd/chronosd" ]; then
	echo "bench: $root is not a chronos checkout (no go.mod / cmd/chronosd)" >&2
	exit 2
fi
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOFLAGS="-buildvcs=false" GOTOOLCHAIN=local
(cd "$root/bench" && go build -o "$out/chronos-bench" .)
cd "$root"
exec "$out/chronos-bench" "$@"
