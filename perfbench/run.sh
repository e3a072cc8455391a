#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments.
# Run from the repository root, e.g.
#   bash perfbench/run.sh --workload serve-cold --seed 1 --seconds 20 --trace 0
# Build output, the Go build cache and the benchmark's working files all go
# under $CARGO_TARGET_DIR (default .bench_build) in the current directory.
set -euo pipefail

root=$(pwd)
out="$root/${CARGO_TARGET_DIR:-.bench_build}"
mkdir -p "$out"
export GOCACHE="$out/go-cache" GOTOOLCHAIN=local
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" -work "$out/work" "$@"
