#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs it. Run from
# the repository root; every argument is passed through, e.g.
#   bash perfbench/run.sh --workload train --seed 1 --seconds 20 --trace 0
#   bash perfbench/run.sh --smoke
# Build output and every Go cache stay under .bench_build/ in the
# checkout; the build is offline and fails when the repository's own
# sources are missing.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" GOPATH="$out/gopath" \
	XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=
(cd "$root/perfbench" && go build -o "$out/perfbench" .) >&2
commit=$(git -C "$root" rev-parse HEAD 2>/dev/null || echo none)
exec "$out/perfbench" --commit "$commit" "$@"
