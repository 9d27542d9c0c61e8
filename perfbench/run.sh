#!/usr/bin/env bash
# Builds the benchmark from this checkout and runs it. Run from the
# repository root:
#
#   bash perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# Everything the build and the run leave behind goes under $CARGO_TARGET_DIR
# (default .bench_build) inside the checkout: the Go build cache, the
# binary, and the traced runs' span files.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -d "$root/store" || ! -f "$root/perfbench/go.mod" ]]; then
	echo "perfbench: run from the root of a repository checkout" >&2
	exit 2
fi
out="${CARGO_TARGET_DIR:-.bench_build}"
case "$out" in
/*) ;;
*) out="$root/$out" ;;
esac
mkdir -p "$out/tmp" "$out/config"

# Keep the Go toolchain's caches, temporaries and settings inside the
# checkout, and never reach for the network.
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath"
export GOMODCACHE="$out/gopath/pkg/mod" XDG_CONFIG_HOME="$out/config"
export GOPROXY=off GOFLAGS=-mod=mod GOWORK=off GOTOOLCHAIN=local

(cd "$root/perfbench" && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" --trace-dir "$out/traces" "$@"
