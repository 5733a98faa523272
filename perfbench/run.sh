#!/usr/bin/env bash
# Builds the fuzzyphase binary and the benchmark from source, then runs the
# benchmark with the given arguments, e.g.
#
#	bash perfbench/run.sh --workload cold --seed 1 --seconds 10 --trace 0
#
# Run it from the repository root. Everything the build and the run write
# goes under .bench_build/ (Go build cache, binaries, profile stores).
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gotmp" "$out/gopath" "$out/config" "$out/run"

export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOPATH="$out/gopath"
export XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOPROXY=off
unset FUZZYPHASE_PROFILE_DIR FUZZYPHASE_TRACE_WORKERS

# The go command starts a detached telemetry child that can outlive it;
# with the mode file at "off" it starts none.
mkdir -p "$out/config/go/telemetry"
echo off >"$out/config/go/telemetry/mode"

if [[ ! -f go.mod || ! -d cmd/fuzzyphase ]]; then
	echo "run.sh: no fuzzyphase source (go.mod, cmd/fuzzyphase) in $root" >&2
	exit 1
fi

go build -o "$out/fuzzyphase" ./cmd/fuzzyphase
(cd perfbench && go build -o "$out/perfbench" .)

exec "$out/perfbench" --root "$root" --server "$out/fuzzyphase" --tmp "$out/run" "$@"
