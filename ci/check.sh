#!/usr/bin/env bash
# Build + test + lint lane. Mirrored verbatim by .github/workflows/ci.yml;
# run locally via ci/run_all.sh (or on its own) to reproduce CI.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> no async runtime: vendor/tokio stays deleted, no manifest names tokio"
if [[ -e vendor/tokio ]]; then
    echo "vendor/tokio exists" >&2
    exit 1
fi
if grep -n tokio --include=Cargo.toml -r . --exclude-dir=benchmark --exclude-dir=target; then
    echo "a Cargo.toml outside benchmark/ names tokio" >&2
    exit 1
fi

echo "==> adaptive filter keeps an O(1) footprint: no per-entry matrices, no per-update model rebuild, one walk per update"
# Non-test code of adaptive.rs only (everything above its #[cfg(test)]).
if sed '/#\[cfg(test)\]/,$d' crates/filter/src/adaptive.rs |
    grep -nE 'VecDeque|with_measurement_noise|with_process_noise|with_scaled_q|set_model'; then
    echo "crates/filter/src/adaptive.rs is back to per-entry windows or rebuilding the model per update" >&2
    exit 1
fi
# `adapt` reads every mean off one lane-blocked pass over the ring; a
# separate R or Q estimator would walk the window again.
if sed '/#\[cfg(test)\]/,$d' crates/filter/src/adaptive.rs |
    grep -nE 'fn adapt_(r|q)\b'; then
    echo "crates/filter/src/adaptive.rs walks the window more than once per update (fn adapt_r / fn adapt_q)" >&2
    exit 1
fi

echo "==> a sync travels as a view: no owned message, allocating pin or cloned P on the endpoint paths"
# Non-test code of the two endpoints only. The two lines let through are the
# snapshot value type (`EndpointState`, captured at durability barriers): its
# `pending` field and the `P` it copies out of the filter.
for endpoint in source server; do
    if sed '/#\[cfg(test)\]/,$d' "crates/core/src/$endpoint.rs" |
        grep -nE 'pin_to_measurement\(|\.covariance\(\)\.clone\(\)|Vec<SyncMessage>' |
        grep -vE '^[0-9]+: +(pub pending: Vec<SyncMessage>|p: self\.filter\.covariance\(\)\.clone\(\)),$'; then
        echo "crates/core/src/$endpoint.rs builds owned syncs on the hot path again" >&2
        exit 1
    fi
done

echo "==> gates are counts and identities: no --kind, no tolerance, no capacity or speed-up column"
if grep -rnE -e '--kind|--tolerance|regression_tolerance' crates/bench/src; then
    echo "crates/bench/src names a deleted check_regression knob" >&2
    exit 1
fi
if grep -nE 'regression_tolerance|capacity|speedup_' BENCH_*.json; then
    echo "a committed BENCH_*.json carries a tolerance, capacity or speed-up column again" >&2
    exit 1
fi

echo "==> one static Kalman step: the batch lanes load, call the kernel and store; no wall-clock gate"
# Non-test code of batch.rs only: the factorisation and the products live
# in crates/linalg/src/static_kernel.rs and nowhere else.
if sed '/#\[cfg(test)\]/,$d' crates/filter/src/batch.rs |
    grep -nE 'sqrt|split_at_mut|reset_planes'; then
    echo "crates/filter/src/batch.rs spells kernel arithmetic over planes again" >&2
    exit 1
fi
if grep -n 'MIN_BATCH_SPEEDUP' crates/bench/src/regression.rs; then
    echo "crates/bench/src/regression.rs gates a wall-clock ratio again" >&2
    exit 1
fi

echo "==> one sliced CRC, fed in place: no copied CRC input, no lazily built table"
# Non-test code of the two durable format files only.
for format in wal snapshot; do
    if sed '/#\[cfg(test)\]/,$d' "crates/durable/src/$format.rs" |
        grep -nE 'crc_input|OnceLock'; then
        echo "crates/durable/src/$format.rs copies CRC input or builds a CRC table at run time again" >&2
        exit 1
    fi
done

echo "==> cargo build --release --workspace"
cargo build --release --workspace

echo "==> cargo test -q --workspace"
cargo test -q --workspace

echo "==> cargo clippy --workspace --all-targets -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo fmt --all --check"
cargo fmt --all --check

echo "ci/check.sh: OK"
