#!/usr/bin/env bash
# Builds the training-step benchmark from source inside the current
# checkout and runs it with the given arguments, e.g.
#
#   bash perfbench/run.sh --workload ddp-mlp-tcp --seed 1 --seconds 20 --trace 0
#
# Run it from the repository root. Every file the build and the run
# write (Go build cache, binary, spans, checkpoints) stays under
# .bench_build/perfbench in that directory.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build/perfbench"
mkdir -p "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" GOTMPDIR="$out/tmp"
export XDG_CONFIG_HOME="$out/config" GOENV=off GOWORK=off GOFLAGS=-mod=mod
export GOPROXY=off GOTOOLCHAIN=local CGO_ENABLED=0

(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" --out "$out" "$@"
