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

echo "==> one representation of Matrix and Vector: inline, capped at DIM_CAP, checked once at the wire"
if grep -rnwE 'SmallBuf|heap_fallbacks|MATRIX_INLINE_CAP|VECTOR_INLINE_CAP|MAX_ELEMS' \
    crates src tests examples; then
    echo "a heap fallback, its counter or a second size cap is back: Matrix/Vector hold at most DIM_CAP per dimension" >&2
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

echo "==> lanes carry every stream: a batched shard has one filter path"
# Non-test code of batch_ingest.rs only: every endpoint of a batched shard
# sits on a lane for the whole run; a Model sync moves it, divergence keeps it.
if sed '/#\[cfg(test)\]/,$d' crates/core/src/batch_ingest.rs | grep -nE 'scalar|demote|settle'; then
    echo "crates/core/src/batch_ingest.rs keeps a second filter path again (scalar / demote / settle)" >&2
    exit 1
fi
if grep -rnE 'fn supported\b|DynFleetBatch::supported|fn coverage\(&self\) -> (Option<)?\(usize, usize\)|(pipe|pipeline|batched|shard|lanes)\.coverage\(\)' \
    crates src tests examples; then
    echo "a batch routing predicate or an ingest coverage() is back: every admitted shape has a lane" >&2
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

echo "==> one spelling of the Kalman step: no shape-generic filter route, no in-place product twins"
# Non-test code only. Every filter steps on StaticKernel (its exact row or a
# zero-padded one); linalg's allocating forms are each product's one spelling.
if sed '/#\[cfg(test)\]/,$d' crates/filter/src/kalman.rs |
    grep -nE 'predict_dynamic|update_dynamic|KalmanScratch|LazyScratch'; then
    echo "crates/filter/src/kalman.rs has a shape-generic filter route again" >&2
    exit 1
fi
for src in crates/linalg/src/*.rs; do
    if sed '/#\[cfg(test)\]/,$d' "$src" |
        grep -nE 'fn (matmul_into|mul_vec_into|sandwich_into|solve_mat_into|refactor)\b'; then
        echo "$src defines an in-place twin of an allocating product again" >&2
        exit 1
    fi
done

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

echo "==> an append-only query DAG: a node's slot is its registration index; the hello cap is the served fleet"
# Non-test code of crates/query/src only: no re-wiring, re-layout or
# registration-index -> slot map.
for src in crates/query/src/*.rs; do
    if sed '/#\[cfg(test)\]/,$d' "$src" |
        grep -nE 'fn (rewire|lay_out|evaluation_order|inputs_with)\b|slot_of'; then
        echo "$src re-wires or re-lays out the query graph again (rewire / lay_out / evaluation_order / inputs_with / slot_of)" >&2
        exit 1
    fi
done
if grep -rn 'max_hello_streams' crates src tests examples; then
    echo "a configured hello cap is back: a hello may claim at most the streams the server serves" >&2
    exit 1
fi

echo "==> one fleet tick loop: every sim entry steps Fleet, the TCP client is its server side"
# Non-test code only (everything above each file's #[cfg(test)]).
loops=0
for src in crates/sim/src/*.rs; do
    n=$(sed '/#\[cfg(test)\]/,$d' "$src" | grep -c 'for now in 0\.\.' || true)
    loops=$((loops + n))
done
if ((loops > 1)); then
    echo "crates/sim/src spells $loops tick loops; Session::run, lockstep and ingest mode all step Fleet's one" >&2
    exit 1
fi
if grep -rnw -e run_lockstep_with_crashes -e run_fleet_ingest_faulty crates src tests examples; then
    echo "a deleted fleet entry is back: a crash is a run_lockstep hook, no faults is LinkFaults::default()" >&2
    exit 1
fi
if sed '/#\[cfg(test)\]/,$d' crates/net/src/client.rs | grep -n 'Link::with_faults'; then
    echo "crates/net/src/client.rs builds its own links again; its links are SimTransport pairs" >&2
    exit 1
fi
if sed '/#\[cfg(test)\]/,$d' crates/net/src/client.rs | grep -nE 'for now in 0\.\.|0\.\.config\.ticks'; then
    echo "crates/net/src/client.rs steps ticks itself again; it runs kalstream_sim::run_ingest_over" >&2
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
