#!/usr/bin/env bash
# Benchmark build lane. benchmark/ is its own workspace (see BENCHMARK.json),
# so `cargo test --workspace` never compiles it and an API change under
# crates/ would break it silently until the next benchmark run. This lane
# builds it against the tree as it is and runs its unit tests (statistics
# helpers, span arithmetic, a small smoke of every workload). It measures
# nothing — timing lives in the benchmark runs themselves.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo build --release --offline --manifest-path benchmark/Cargo.toml"
cargo build --release --offline --manifest-path benchmark/Cargo.toml

echo "==> cargo test -q --offline --manifest-path benchmark/Cargo.toml"
cargo test -q --offline --manifest-path benchmark/Cargo.toml

echo "ci/benchmark_build.sh: OK"
