#!/usr/bin/env bash
# Builds the benchmark from the sources in this checkout and runs it.
# Run from the repository root:
#
#   bash perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#   bash perfbench/run.sh --list
#
# Everything the build writes (binary, Go build cache) stays under the
# build directory, $CARGO_TARGET_DIR or .bench_build by default.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -f "$root/perfbench/go.mod" ]]; then
	echo "perfbench: run from the repository root; no program sources found in $root" >&2
	exit 2
fi
build=${CARGO_TARGET_DIR:-.bench_build}
[[ $build = /* ]] || build="$root/$build"
mkdir -p "$build/home"

(
	cd "$root/perfbench"
	HOME="$build/home" XDG_CONFIG_HOME="$build/home" GOPATH="$build/gopath" \
		GOCACHE="$build/gocache" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=mod GOWORK=off \
		go build -o "$build/perfbench" .
)
exec "$build/perfbench" "$@"
