#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout and runs it:
#
#   bash perfbench/run.sh --workload solve-pla85k --seed 1 --seconds 20 --trace 0
#
# Run from the repository root. Every build artefact (the Go build
# cache, the binary, the benchmark's state and trace files) stays under
# .bench_build/ in the checkout.
set -euo pipefail
root="$(pwd)"
out="${root}/.bench_build"
mkdir -p "${out}/gocache" "${out}/gotmp"
export GOCACHE="${out}/gocache" GOTMPDIR="${out}/gotmp"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=mod GOWORK=off
go -C "${root}/perfbench" build -o "${out}/perfbench" . >&2
exec "${out}/perfbench" "$@"
