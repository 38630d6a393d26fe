#!/usr/bin/env bash
# Builds the serving benchmark and runs it. Run from the repository root:
#
#   bash perfbench/run.sh --workload small-sorts --seed 1 --seconds 10 --trace 0
#
# Every build product, the Go build cache included, goes under the
# directory named by CARGO_TARGET_DIR (default .bench_build), so a run
# reads and writes only inside the checkout.
set -euo pipefail

root=$PWD
if [[ ! -f "$root/go.mod" || ! -d "$root/cmd/serve" || ! -f "$root/perfbench/go.mod" ]]; then
	echo "perfbench: run from the repository root (go.mod, cmd/serve and perfbench/ are required)" >&2
	exit 2
fi
out=${CARGO_TARGET_DIR:-.bench_build}
[[ $out == /* ]] || out=$root/$out
mkdir -p "$out/bin" "$out/tmp"

export GOCACHE=$out/gocache GOTMPDIR=$out/tmp GOMODCACHE=$out/gomodcache GOPATH=$out/gopath
export XDG_CONFIG_HOME=$out/config XDG_CACHE_HOME=$out/cache TMPDIR=$out/tmp
export GOFLAGS= GOPROXY=off GOTOOLCHAIN=local GOWORK=off GOENV=off

(cd "$root/perfbench" && go build -o "$out/bin/perfbench" .)
exec "$out/bin/perfbench" -root "$root" -out "$out" "$@"
