#!/usr/bin/env bash
# Informational (non-gating) lane: re-run the batch-lane equivalence suite
# compiled with -C target-cpu=native, so wider SIMD codegen on the runner's
# CPU is exercised next to the gated portable build. Every shape's lanes
# must still match the scalar filter bit for bit (the batch kernels promise
# identical results under any codegen); nothing is compared against a
# baseline.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> batch_equivalence with RUSTFLAGS='-C target-cpu=native' (informational)"
# Separate target dir: native codegen must not poison the portable cache.
RUSTFLAGS="-C target-cpu=native" CARGO_TARGET_DIR=target/native \
    cargo test --release -q --test batch_equivalence

echo "ci/bench_native.sh: OK (informational only)"
