#!/usr/bin/env bash
# Elastic lane: closed-loop shard scaling in CI, seconds not minutes.
#
# Gates:
#   * the kalstream-elastic test suite — the controller's band/hysteresis/
#     cooldown arithmetic and the driver's loop closure around a real
#     pipeline;
#   * the whole-system elastic_scaling suite — a resize with ticks still in
#     flight (drain barrier), shrink to the one-shard floor, sawtooth load
#     absorbed by hysteresis, and a resize racing a crash (recovery into
#     the post-resize shape); every run must stay bit-identical;
#   * the net elastic_identity suite — a TCP fleet that grows mid-serve
#     without dropping a connection and converges to the sequential bits;
#   * exp_elastic_scaling — the recorded load-swing sweep, re-measured;
#   * check_regression — the fresh artifact against the committed
#     BENCH_elastic.json (bit-identity, zero violations, the ≥4× swing
#     floor, exact decision canaries, and the absolute 1 s resize-stall
#     ceiling — a hang detector, not a perf gate).
set -euo pipefail
cd "$(dirname "$0")/.."

ART=ci-artifacts
mkdir -p "$ART"

SUMMARY=()
if [[ -n "${GITHUB_STEP_SUMMARY:-}" ]]; then
    SUMMARY=(--summary-out "$GITHUB_STEP_SUMMARY")
fi

echo "==> kalstream-elastic test suite (controller + driver loop closure)"
cargo test --release -q -p kalstream-elastic

echo "==> elastic_scaling suite (drain barrier, one-shard floor, sawtooth, resize-vs-crash)"
cargo test --release -q --test elastic_scaling

echo "==> net elastic_identity suite (TCP fleet grows without dropping connections)"
cargo test --release -q -p kalstream-net --test elastic_identity

echo "==> exp_elastic_scaling (load-swing sweep: bit-identity + decision canaries)"
cargo run --release -q -p kalstream-bench --bin exp_elastic_scaling -- \
    --out "$ART/BENCH_elastic.json" --metrics-out "$ART/exp_elastic_scaling.metrics.json"

echo "==> check_regression BENCH_elastic.json"
cargo run --release -q -p kalstream-bench --bin check_regression -- \
    --baseline BENCH_elastic.json --current "$ART/BENCH_elastic.json" \
    ${SUMMARY[@]+"${SUMMARY[@]}"}

echo "ci/elastic_smoke.sh: OK"
