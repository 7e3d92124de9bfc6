#!/usr/bin/env bash
# Builds the benchmark from the checkout's own sources and runs it.
# Run from the repository root:
#
#   bash perfbench/run.sh --workload flood|scan|trials --seed N --seconds S --trace 0|1
#
# Extra flags (-cpuprofile, -memprofile, -trace-out) pass through.
# Everything the build writes (compiler cache, temp files, the binary) goes
# under .perfbench_build/ in the checkout.
set -euo pipefail
root=$(pwd)
if [ ! -f "$root/go.mod" ] || [ ! -f "$root/perfbench/go.mod" ]; then
	echo "perfbench: run from the repository root (go.mod and perfbench/go.mod are required)" >&2
	exit 2
fi
out="$root/.perfbench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/config"
# XDG_CONFIG_HOME keeps the go command's telemetry counters in the checkout.
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOMODCACHE="$out/gomodcache" XDG_CONFIG_HOME="$out/config"
export GOFLAGS=-buildvcs=false GOTOOLCHAIN=local GOPROXY=off GOWORK=off
commit=unknown
if [ -d "$root/.git" ] && command -v git >/dev/null 2>&1; then
	commit=$(git -C "$root" rev-parse HEAD 2>/dev/null || echo unknown)
fi
(cd "$root/perfbench" && go build -o "$out/perfbench" .) >&2
# The Go runtime hands freed heap back with MADV_DONTNEED by default, so the
# next allocation burst page-faults it in again. Inside a VM the cost of
# those faults swings with the host's state, and it dominated the scan's
# per-endpoint tail from run to run; MADV_FREE keeps freed pages mapped
# until the kernel needs them, which takes that noise out of the numbers.
export GODEBUG=madvdontneed=0
exec "$out/perfbench" -commit "$commit" "$@"
