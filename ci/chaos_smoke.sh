#!/usr/bin/env bash
# Chaos lane: kill-and-recover in CI, seconds not minutes.
#
# Gates:
#   * the kalstream-durable test suite — snapshot/WAL format round-trips,
#     torn-tail and corrupt-snapshot recovery, retention;
#   * the whole-system crash_recovery suite — kill the ingest pipeline at
#     an arbitrary tick (proptest), crash every lockstep server, and kill
#     a real TCP server mid-serve; each must recover **bit-identical** to
#     an uncrashed reference with zero post-recovery violations;
#   * elastic_identity — the only test of durable + elastic together: every
#     resize barrier checkpointed (or sharing a cadence snapshot), and the
#     crashed durable + elastic TCP server restarting bit-identical;
#   * exp_crash_recovery — the recorded kill/recover sweep, re-measured;
#   * check_regression — the fresh artifact against the committed
#     BENCH_durable.json (bit-identity, zero post-recovery violations and
#     the exact replay/byte determinism canaries).
set -euo pipefail
cd "$(dirname "$0")/.."

ART=ci-artifacts
mkdir -p "$ART"

# On a runner, the gate also appends its verdict table to the run page.
SUMMARY=()
if [[ -n "${GITHUB_STEP_SUMMARY:-}" ]]; then
    SUMMARY=(--summary-out "$GITHUB_STEP_SUMMARY")
fi

echo "==> kalstream-durable test suite (snapshot/WAL format + recovery)"
cargo test --release -q -p kalstream-durable

echo "==> crash_recovery suite (kill at arbitrary tick, recover, diverge never)"
cargo test --release -q --test crash_recovery

echo "==> elastic_identity (durable + elastic over TCP: resize checkpoints, crash/restart)"
cargo test --release -q -p kalstream-net --test elastic_identity

echo "==> exp_crash_recovery (kill/recover sweep: bit-identity + replay canaries)"
cargo run --release -q -p kalstream-bench --bin exp_crash_recovery -- \
    --out "$ART/BENCH_durable.json" --metrics-out "$ART/exp_crash_recovery.metrics.json"

echo "==> check_regression BENCH_durable.json"
cargo run --release -q -p kalstream-bench --bin check_regression -- \
    --baseline BENCH_durable.json --current "$ART/BENCH_durable.json" \
    ${SUMMARY[@]+"${SUMMARY[@]}"}

echo "ci/chaos_smoke.sh: OK"
