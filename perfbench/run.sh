#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs one workload:
#
#   bash perfbench/run.sh --workload fig8|storm|hwatchd --seed N --seconds S --trace 0|1
#
# Run it from the repository root. Everything the build and the run leave
# behind goes under .bench_build/ (or $CARGO_TARGET_DIR when set): the Go
# build cache, temporary files, the binary and the traced runs' span dumps.
# The build never touches the network.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/perfbench/go.mod" ]]; then
	echo "perfbench: run from the repository root" >&2
	exit 2
fi
if [[ ! -f "$root/go.mod" ]]; then
	echo "perfbench: no program sources at $root (go.mod missing)" >&2
	exit 2
fi

out=${CARGO_TARGET_DIR:-.bench_build}
case "$out" in
/*) ;;
*) out="$root/$out" ;;
esac
mkdir -p "$out/gocache" "$out/tmp" "$out/config"

export GOCACHE="$out/gocache"
export GOTMPDIR="$out/tmp"
export XDG_CONFIG_HOME="$out/config" # the go command's telemetry counters
export GOPROXY=off
export GOSUMDB=off
export GOFLAGS=-mod=readonly
export GOTOOLCHAIN=local
export GOWORK=off

(cd "$root/perfbench" && go build -o "$out/perfbench" .)
export PERFBENCH_OUT="$out"
exec "$out/perfbench" "$@"
