#!/usr/bin/env bash
# Loopback network smoke lane: real sockets in CI, seconds not minutes.
#
# Gates:
#   * the kalstream-net test suite — the transport bit-identity canaries
#     (TCP session == sim session to the bit, fleet over TCP == sequential
#     reference) plus codec/lifecycle tests; any panic fails the lane;
#   * bench_net --quick — a 64-connection loopback fleet that must end
#     bit-identical with zero shed feedback, zero rejected hellos, and
#     zero decode failures (the binary exits non-zero otherwise);
#   * check_regression — the fresh artifact against the committed
#     BENCH_net.json: the identity and zero-counter rows again, plus the
#     exact total_messages canary of the baseline's quick_shape record.
set -euo pipefail
cd "$(dirname "$0")/.."

ART=ci-artifacts
mkdir -p "$ART"

# On a runner, the gate also appends its verdict table to the run page.
SUMMARY=()
if [[ -n "${GITHUB_STEP_SUMMARY:-}" ]]; then
    SUMMARY=(--summary-out "$GITHUB_STEP_SUMMARY")
fi

echo "==> kalstream-net test suite (transport bit-identity canaries)"
cargo test --release -q -p kalstream-net

echo "==> bench_net --quick (loopback fleet: bit-identity + zero-shed gates)"
cargo run --release -q -p kalstream-bench --bin bench_net -- \
    --quick --out "$ART/bench_net.json" --metrics-out "$ART/bench_net.metrics.json"

echo "==> check_regression BENCH_net.json (quick_shape canary)"
cargo run --release -q -p kalstream-bench --bin check_regression -- \
    --baseline BENCH_net.json --current "$ART/bench_net.json" \
    ${SUMMARY[@]+"${SUMMARY[@]}"}

echo "ci/net_smoke.sh: OK"
