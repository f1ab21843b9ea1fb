#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run from the repository
# root:
#
#   bash perfbench/run.sh --workload explore-mem --seed 1 --seconds 25 --trace 0
#   bash perfbench/run.sh compare OLD.jsonl NEW.jsonl
#
# Everything it writes (Go build cache, binary, data files, records,
# traces) stays under .bench_build/ in the current directory.
set -euo pipefail
out="$(pwd)/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
# The go command's config, env and telemetry files live under
# XDG_CONFIG_HOME; GOPATH is the default home of module downloads.
export XDG_CONFIG_HOME="$out/config" GOPATH="$out/gopath"
export GOTOOLCHAIN=local GOWORK=off GOFLAGS=-mod=readonly
(cd perfbench && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
