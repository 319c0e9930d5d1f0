#!/usr/bin/env bash
# Informational (non-gating) lane: re-run the kernel check compiled with
# -C target-cpu=native, so wider SIMD codegen on the runner's CPU is
# exercised next to the gated portable build. Nothing here is compared
# against a baseline, but the artifact lands in ci-artifacts/ for
# eyeballing, and bit-identity must still hold (the batch kernels promise
# identical results under any codegen).
set -euo pipefail
cd "$(dirname "$0")/.."

ART=ci-artifacts
mkdir -p "$ART"

echo "==> bench_kernels with RUSTFLAGS='-C target-cpu=native' (informational)"
# Separate target dir: native codegen must not poison the portable cache.
RUSTFLAGS="-C target-cpu=native" CARGO_TARGET_DIR=target/native \
    cargo run --release -q -p kalstream-bench --bin bench_kernels -- \
    --out "$ART/bench_kernels.native.json" \
    --metrics-out "$ART/bench_kernels.native.metrics.json"

echo "ci/bench_native.sh: OK (informational only, artifacts in $ART/)"
