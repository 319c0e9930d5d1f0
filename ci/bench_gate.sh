#!/usr/bin/env bash
# Bench-regression lane: run the allocation smoke gate plus the kernel and
# ingest checks in CI-sized configurations, then hold every fresh artifact
# to the committed baseline with check_regression (exact canaries, zero
# counters, identities, absolute floors — no tolerance, no wall clock; the
# gate table is picked by the artifacts' own "schema"). Throughput and
# latency are the BENCHMARK.json workloads' job, not this lane's. All
# outputs land in ci-artifacts/ for upload.
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

echo "==> check_regression BENCH_kernels.json"
cargo run --release -q -p kalstream-bench --bin check_regression -- \
    --baseline BENCH_kernels.json --current "$ART/bench_kernels.json" \
    ${SUMMARY[@]+"${SUMMARY[@]}"}

echo "==> bench_ingest --quick (reduced scale, full gates)"
cargo run --release -q -p kalstream-bench --bin bench_ingest -- \
    --quick --out "$ART/bench_ingest.json" --metrics-out "$ART/bench_ingest.metrics.json"

echo "==> check_regression BENCH_ingest.json (quick_shape canaries)"
cargo run --release -q -p kalstream-bench --bin check_regression -- \
    --baseline BENCH_ingest.json --current "$ART/bench_ingest.json" \
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

    echo "==> check_regression BENCH_${exp#exp_}.json ($tag)"
    cargo run --release -q -p kalstream-bench --bin check_regression -- \
        --baseline "BENCH_${exp#exp_}.json" \
        --current "$ART/$exp.metrics.json" \
        ${SUMMARY[@]+"${SUMMARY[@]}"}
done

# The canaries on the run page, next to the gate verdicts.
if [[ -n "${GITHUB_STEP_SUMMARY:-}" ]]; then
    {
        echo "### Headline canaries"
        echo ""
        echo "| metric | value |"
        echo "|---|---:|"
        echo "| fleet_total_messages | $(json_num "$ART/bench_kernels.json" fleet_total_messages) |"
        echo "| ingest messages (quick shape) | $(json_num "$ART/bench_ingest.json" messages) |"
        echo "| ingest packed_bytes (quick shape) | $(json_num "$ART/bench_ingest.json" packed_bytes) |"
        echo "| q3 savings_fraction | $(json_num "$ART/exp_q3_query_graph.metrics.json" gate.savings_fraction) |"
        echo "| q3 coverage | $(json_num "$ART/exp_q3_query_graph.metrics.json" gate.coverage) |"
        echo ""
    } >> "$GITHUB_STEP_SUMMARY"
fi

echo "ci/bench_gate.sh: OK (artifacts in $ART/)"
