#!/usr/bin/env bash
# Builds the s2c2 benchmark from the source in this checkout and runs it,
# passing every argument on:
#
#   bash perfbench/run.sh --workload gd-straggler --seed 1 --seconds 10 --trace 0
#
# The Go build cache, temporary files and results all go under
# $CARGO_TARGET_DIR (default .bench_build in the checkout), so a run writes
# nothing outside the checkout. Without the repository's source next to
# perfbench/ the build fails and the script exits non-zero.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="${CARGO_TARGET_DIR:-.bench_build}"
case "$out" in
/*) ;;
*) out="$root/$out" ;;
esac
mkdir -p "$out/gocache" "$out/tmp" "$out/config" "$out/gopath"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config" \
	GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod" \
	GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off
(cd "$root/perfbench" && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" --out "$out/results" "$@"
