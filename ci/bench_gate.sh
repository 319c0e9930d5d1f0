#!/usr/bin/env bash
# Bench-regression lane: run the allocation smoke gate plus the kernel and
# ingest benchmarks in CI-sized configurations, then gate every fresh
# measurement against the committed baselines with check_regression
# (tolerance documented in the baseline JSONs themselves). All outputs land
# in ci-artifacts/ for upload.
set -euo pipefail
cd "$(dirname "$0")/.."

ART=ci-artifacts
mkdir -p "$ART"

# On a runner, every gate also appends its verdict table to the run page.
SUMMARY=()
if [[ -n "${GITHUB_STEP_SUMMARY:-}" ]]; then
    SUMMARY=(--summary-out "$GITHUB_STEP_SUMMARY")
fi

# First "key": <number> in a flat JSON artifact, for the headline summary.
json_num() {
    grep -o "\"$2\": *[0-9.eE+-]*" "$1" | head -1 | sed 's/.*: *//'
}

echo "==> bench_smoke (allocation gate)"
cargo run --release -q -p kalstream-bench --bin bench_smoke -- \
    --metrics-out "$ART/bench_smoke.metrics.json"

echo "==> bench_kernels --quick (canary fleet still full scale; batch fleet shortened)"
cargo run --release -q -p kalstream-bench --bin bench_kernels -- \
    --quick --out "$ART/bench_kernels.json" --metrics-out "$ART/bench_kernels.metrics.json"

echo "==> check_regression --kind kernels"
cargo run --release -q -p kalstream-bench --bin check_regression -- \
    --kind kernels --baseline BENCH_kernels.json --current "$ART/bench_kernels.json" \
    ${SUMMARY[@]+"${SUMMARY[@]}"}

echo "==> bench_ingest --quick (reduced scale, full gates)"
cargo run --release -q -p kalstream-bench --bin bench_ingest -- \
    --quick --out "$ART/bench_ingest.json" --metrics-out "$ART/bench_ingest.metrics.json"

echo "==> check_regression --kind ingest"
cargo run --release -q -p kalstream-bench --bin check_regression -- \
    --kind ingest --baseline BENCH_ingest.json --current "$ART/bench_ingest.json" \
    ${SUMMARY[@]+"${SUMMARY[@]}"}

# The three query experiments share one engine (QueryGraph) and one gate
# stanza: run, then check the exact canaries against the committed baseline.
for gate in \
    "Q1:exp_q1_query_bounds:precision propagation" \
    "Q2:exp_q2_budget_realloc:epoch budget re-allocation" \
    "Q3:exp_q3_query_graph:cascaded DAG + punctuation feedback"; do
    IFS=: read -r tag exp what <<<"$gate"
    echo "==> $exp ($what, deterministic)"
    cargo run --release -q -p kalstream-bench --bin "$exp" -- \
        --metrics-out "$ART/$exp.metrics.json" > /dev/null

    echo "==> check_regression --kind query ($tag)"
    cargo run --release -q -p kalstream-bench --bin check_regression -- \
        --kind query --baseline "BENCH_${exp#exp_}.json" \
        --current "$ART/$exp.metrics.json" \
        ${SUMMARY[@]+"${SUMMARY[@]}"}
done

# Headline numbers on the run page, next to the gate verdicts.
if [[ -n "${GITHUB_STEP_SUMMARY:-}" ]]; then
    {
        echo "### Headline bench numbers"
        echo ""
        echo "| metric | value |"
        echo "|---|---:|"
        echo "| predict_ns | $(json_num "$ART/bench_kernels.json" predict_ns) |"
        echo "| update_ns | $(json_num "$ART/bench_kernels.json" update_ns) |"
        echo "| batch_fleet_speedup | $(json_num "$ART/bench_kernels.json" batch_fleet_speedup) |"
        echo "| sequential msgs_per_sec | $(json_num "$ART/bench_ingest.json" msgs_per_sec) |"
        echo "| q3 savings_fraction | $(json_num "$ART/exp_q3_query_graph.metrics.json" gate.savings_fraction) |"
        echo "| q3 coverage | $(json_num "$ART/exp_q3_query_graph.metrics.json" gate.coverage) |"
        echo ""
    } >> "$GITHUB_STEP_SUMMARY"
fi

echo "ci/bench_gate.sh: OK (artifacts in $ART/)"
