#!/usr/bin/env bash
# Build + test + lint lane. Mirrored verbatim by .github/workflows/ci.yml;
# run locally via ci/run_all.sh (or on its own) to reproduce CI.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> what nothing ran stays deleted: no async runtime, no serde or parking_lot stand-in, no EKF/UKF/RTS smoother, text query parser, sliding quantile, filter stats or log-normal"
for stub in tokio parking_lot serde serde_derive; do
    if [[ -e "vendor/$stub" ]]; then
        echo "vendor/$stub exists" >&2
        exit 1
    fi
done
if grep -nE 'tokio|serde|parking_lot' --include=Cargo.toml -r . --exclude-dir=benchmark --exclude-dir=target; then
    echo "a Cargo.toml outside benchmark/ names tokio, serde or parking_lot" >&2
    exit 1
fi
if grep -rnwE 'ExtendedKalmanFilter|UnscentedKalmanFilter|NonlinearModel|rts_smooth|parse_query|ParsedQuery|SlidingQuantile|RunningStats|LogNormal' \
    crates src tests examples; then
    echo "a deleted item is back: bring it back with its first caller, not ahead of one" >&2
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

echo "==> the shard applies in place: no sync queued or drained on the ingest tick"
# Non-test code only. `Shard::tick` admits each sync and applies it where it
# lies in the tick buffer; the endpoint's byte queue is the simulator's.
if sed '/#\[cfg(test)\]/,$d' crates/core/src/ingest.rs | grep -n 'enqueue_view'; then
    echo "crates/core/src/ingest.rs queues syncs on the shard path again (enqueue_view)" >&2
    exit 1
fi
if sed '/#\[cfg(test)\]/,$d' crates/core/src/batch_ingest.rs | grep -n 'drain_pending'; then
    echo "crates/core/src/batch_ingest.rs drains a queue onto the lanes again (drain_pending)" >&2
    exit 1
fi

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

echo "==> overlapping aggregates fold once: no whole-list aggregate fold in the query graph"
# Non-test code of graph.rs only. An aggregate folds from a start it is
# given (`fold_outs`, `fold_values`): `fold_start`, or the accumulator of
# the prefix it extends. A whole-list fold would re-add shared prefixes.
if sed '/#\[cfg(test)\]/,$d' crates/query/src/graph.rs |
    grep -nE 'fn (aggregate_outs|aggregate_values)\b'; then
    echo "crates/query/src/graph.rs folds whole input lists again (fn aggregate_outs / fn aggregate_values)" >&2
    exit 1
fi

echo "==> cargo build --release --workspace"
cargo build --release --workspace

echo "==> cargo test -q --workspace"
cargo test -q --workspace

echo "==> every example runs once in release and asserts its own claims"
for example in examples/*.rs; do
    cargo run --release -q --example "$(basename "$example" .rs)" >/dev/null
done

echo "==> cargo clippy --workspace --all-targets -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo fmt --all --check"
cargo fmt --all --check

echo "ci/check.sh: OK"
