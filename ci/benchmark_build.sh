#!/usr/bin/env bash
# Benchmark build lane. benchmark/ is its own workspace (see BENCHMARK.json),
# so `cargo test --workspace` never compiles it and an API change under
# crates/ would break it silently until the next benchmark run. This lane
# builds it against the tree as it is, runs its unit tests (statistics
# helpers, span arithmetic, a small smoke of every workload) and then runs
# the built binary for one second per workload exactly as BENCHMARK.json's
# command does. It gates what a run checks about itself — exit status, the
# bit-identity self-check (`correct`) and zero failed operations — and
# asserts nothing about timing; that lives in the benchmark runs themselves.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo build --release --offline --manifest-path benchmark/Cargo.toml"
cargo build --release --offline --manifest-path benchmark/Cargo.toml

echo "==> cargo test -q --offline --manifest-path benchmark/Cargo.toml"
cargo test -q --offline --manifest-path benchmark/Cargo.toml

for workload in inproc_fleet tcp_replay tcp_durable query_graph; do
    echo "==> kalstream-benchmark --workload $workload --seconds 1 --trace 0"
    cargo run --release --offline --quiet --manifest-path benchmark/Cargo.toml -- \
        --workload "$workload" --seed 1 --seconds 1 --trace 0 | tail -n 1 |
        python3 -c '
import json, sys
run = json.loads(sys.stdin.read())
print("    correct=%s attempted=%d failed=%d" % (run["correct"], run["attempted"], run["failed"]))
sys.exit(0 if run["correct"] and run["failed"] == 0 and run["attempted"] > 0 else 1)'
done

echo "ci/benchmark_build.sh: OK"
