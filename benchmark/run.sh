#!/usr/bin/env bash
# Builds the benchmark and the tapas-serve daemon from this checkout into
# .bench_build, then runs one workload from the repository root:
#
#   bash benchmark/run.sh --workload ablation --seed 42 --seconds 25 --trace 0
#
# Every file the Go toolchain writes (build cache, temporary files, settings)
# stays under .bench_build, and nothing is downloaded. Go telemetry is turned
# off in that settings directory: otherwise every go command may start a
# detached telemetry process that outlives the benchmark.
set -euo pipefail
root="$(cd "$(dirname "$0")/.." && pwd)"
cd "$root"
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gopath" "$out/tmp" "$out/config/go/telemetry"
printf off > "$out/config/go/telemetry/mode"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" \
  XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off
go build -o "$out/tapas-serve" ./cmd/tapas-serve
(cd benchmark && go build -o "$out/benchmark" .)
exec "$out/benchmark" "$@"
