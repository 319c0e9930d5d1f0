#!/usr/bin/env bash
# Build + test + lint lane. Mirrored verbatim by .github/workflows/ci.yml;
# run locally via ci/run_all.sh (or on its own) to reproduce CI.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> what nothing ran stays deleted: no async runtime, no serde or parking_lot stand-in, no EKF/UKF/RTS smoother, text query parser, sliding quantile, filter stats or log-normal, no elastic rebalancer, salted route, queue signal or controller tuning, no timed kernel check, no cargo bench target or criterion stand-in"
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
# The elastic controller grows and shrinks on offered load; a shard
# assignment is a shard count. No caller ran the rebalancer, its salted
# route or the controller knobs and inputs nothing set.
if grep -rnwE 'Rebalance|rebalance_imbalance|salted|salt_epoch|busy_frac|queue_capacity|ShardAssignment|exp_fleet_scaling' \
    crates src tests examples; then
    echo "a deleted elastic or bench item is back: bring it back with its first caller, not ahead of one" >&2
    exit 1
fi
# Both control loops read only the traffic they are fed: no queue-depth
# signal, no tuning one caller set, no stream weights in the fleet
# controller and no second copy of its control round.
if grep -rnwE 'use_queue_signal|max_queue_depth|ElasticConfig|grow_after|shrink_after|tick_demands|with_weights' \
    crates src tests examples; then
    echo "a deleted controller setting, input or round is back: the control loops read the traffic and nothing else" >&2
    exit 1
fi
# One timing system: per-operation cost is the benchmark/ ledger's, so no
# crate has a `cargo bench` target and criterion has no stand-in. Manifests
# are searched, not sources: crates/filter/src/fit.rs speaks of an
# out-of-sample criterion.
if [[ -e vendor/criterion ]]; then
    echo "vendor/criterion exists" >&2
    exit 1
fi
if grep -rnw criterion --include=Cargo.toml --include=Cargo.lock . --exclude-dir=benchmark --exclude-dir=target; then
    echo "a Cargo.toml or Cargo.lock outside benchmark/ names criterion" >&2
    exit 1
fi
benches=$(find . \( -name target -o -name .git \) -prune -o -type d -name benches -print)
if [[ -n "$benches" ]] || grep -rnF '[[bench]]' --include=Cargo.toml . --exclude-dir=target; then
    echo "a crate has a benches/ directory or a [[bench]] target: ${benches:-see above}; time it as a span of the benchmark/ ledger" >&2
    exit 1
fi

echo "==> every T4 row cites a metric the benchmark's ledger makes"
# Each backticked dotted name in EXPERIMENTS.md's T4 table must be a string
# literal in benchmark/src, so a row cannot quote a metric nothing measures.
t4_metrics=$(sed -n '/^## T4 /,/^## /p' EXPERIMENTS.md | grep '^|' | grep -oE '`[a-z0-9_]+(\.[a-z0-9_]+)+`' | tr -d '`' | sort -u || true)
if [[ -z "$t4_metrics" ]]; then
    echo "EXPERIMENTS.md's T4 table cites no ledger metric" >&2
    exit 1
fi
for metric in $t4_metrics; do
    if ! grep -qF "\"$metric\"" benchmark/src/*.rs; then
        echo "EXPERIMENTS.md's T4 table cites $metric, which no string literal in benchmark/src/*.rs names" >&2
        exit 1
    fi
done

echo "==> one gate per fact: no kernel check beside bench_smoke, tables_gate and batch_equivalence"
# Allocation-free hot paths are bench_smoke's, fleet determinism is the F7
# table's and batch lanes = scalar filter is batch_equivalence's. This file
# is the one place the deleted names may appear.
if grep -rnE 'bench_kernels|bench-kernels|fleet_batch|run_fleet_batch|BENCH_kernels' \
    crates src tests examples ci .cargo .github --exclude=check.sh; then
    echo "a deleted kernel-check item is back: each fact has one gate" >&2
    exit 1
fi

echo "==> one update per filter; the filter tunings no caller varies are constants"
# `KalmanFilter`, `AdaptiveKalmanFilter` and `ModelBank` each have one
# update, returning `UpdateStats`; nu and S stay with the crate-internal
# `update_with` reader. `AdaptiveConfig` holds the window and `adapt_q`;
# the R floor, Q step, NIS band and Q-scale clamp (adaptive.rs) and the
# bank's decay, margin, dwell and penalty (bank.rs) are constants. The
# field names are caught as a struct field (`name:`) or a field read
# (`.name` not followed by `(`), so the proptest oracle's `fn adapt_r`
# method passes.
if grep -rnwE 'UpdateOutcome|update_lean|update_lean_slice|step_lean|BankConfig' \
    crates src tests examples --exclude=check.sh; then
    echo "a lean update twin, UpdateOutcome or BankConfig is back: each filter has one update and the bank has no config" >&2
    exit 1
fi
tunings='adapt_r|r_floor|q_step|nis_band|q_scale_bounds|min_dwell|switch_margin|complexity_penalty'
if grep -rnE "\b($tunings)[[:space:]]*:([^:]|\$)|\.($tunings)([^(_[:alnum:]]|\$)" \
    crates src tests examples --exclude=check.sh; then
    echo "a filter tuning no caller varies is a setting again: it is a constant in adaptive.rs or bank.rs" >&2
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
# Non-test code of the two endpoints only. The one line let through is the
# `P` the snapshot value type (`EndpointState`, captured at durability
# barriers) copies out of the filter.
for endpoint in source server; do
    if sed '/#\[cfg(test)\]/,$d' "crates/core/src/$endpoint.rs" |
        grep -nE 'pin_to_measurement\(|\.covariance\(\)\.clone\(\)|Vec<SyncMessage>' |
        grep -vE '^[0-9]+: +p: filter\.covariance\(\)\.clone\(\),$'; then
        echo "crates/core/src/$endpoint.rs builds owned syncs on the hot path again" >&2
        exit 1
    fi
done

echo "==> a sync applies when it arrives: no pending queue, no cap, no shard copy of its shedding"
# The endpoint applies each admitted sync on delivery and the shard where it
# lies in the tick buffer, so neither queues, caps or sheds syncs.
if grep -rnwE 'PENDING_CAP|plan_shed|drain_pending|push_pending|shed_at_cap|pending_len' \
    crates src tests examples; then
    echo "a pending-queue item is back: a sync applies when it arrives" >&2
    exit 1
fi

echo "==> lanes carry every stream: a shard has one filter path"
# Non-test code of batch_ingest.rs only: every endpoint of a shard sits on a
# lane for the whole run; a Model sync rewrites or moves it, divergence keeps it.
if sed '/#\[cfg(test)\]/,$d' crates/core/src/batch_ingest.rs | grep -nE 'scalar|demote|settle'; then
    echo "crates/core/src/batch_ingest.rs keeps a second filter path again (scalar / demote / settle)" >&2
    exit 1
fi
if grep -rnE 'fn supported\b|DynFleetBatch::supported|fn coverage\(&self\) -> (Option<)?\(usize, usize\)|(pipe|pipeline|batched|shard|lanes)\.coverage\(\)' \
    crates src tests examples; then
    echo "a batch routing predicate or an ingest coverage() is back: every admitted shape has a lane" >&2
    exit 1
fi

echo "==> lanes are the shard: no plain branch, no batched switch; a plain free list, not a pool"
# Non-test code of crates/core/src: every shard steps its endpoints as
# lanes, so neither an optional engine nor a switch selecting it exists.
for src in crates/core/src/*.rs; do
    if sed '/#\[cfg(test)\]/,$d' "$src" | grep -nvE '^ *(//|\*)' |
        grep -E 'Option<BatchLanes>|\bbatched\b'; then
        echo "$src has a second shard engine or a batched switch again (Option<BatchLanes> / batched)" >&2
        exit 1
    fi
done
if grep -rn -e '--batched' crates/net/src/bin; then
    echo "crates/net/src/bin takes --batched again: every shard steps lanes" >&2
    exit 1
fi
# Every pipeline buffer is reserved to the high-water mark, so any free one
# will do: the capacity-ordered BufferPool is gone.
if grep -rnwE 'BufferPool|DEFAULT_POOL_CAP' crates src tests examples; then
    echo "a capacity-ordered buffer pool is back: the pipeline's free list is a plain Vec" >&2
    exit 1
fi
# `NetServerConfig::batched` stays, deprecated and inert, until the
# benchmark stops naming it: its field and its Default impl are the only
# code lines left that name it (the one other hit is the recorded
# exp_crash_recovery table title).
if grep -rnw 'batched' crates src tests examples --include=*.rs |
    grep -vE '^[^:]+:[0-9]+: *(//|\*)' |
    grep -vE '^crates/net/src/server\.rs:[0-9]+: +(pub batched: bool,|batched: false,)$' |
    grep -vE '^crates/bench/src/bin/exp_crash_recovery\.rs:[0-9]+: +"Crash recovery: .*batched pipeline killed and recovered"$'; then
    echo "code sets or reads NetServerConfig::batched again, or names a batched switch" >&2
    exit 1
fi

echo "==> the lane is the shard's filter: a shard keeps each stream's protocol half, no dormant filter, no twin hooks"
# Non-test code of crates/core/src only. Shard::new takes each endpoint
# apart (protocol half kept, filter put on a lane); finish and
# snapshot_states put it back together. Nothing keeps a second filter in
# step with the lane, so no overlay, restore or counting hook exists.
for src in crates/core/src/*.rs; do
    if sed '/#\[cfg(test)\]/,$d' "$src" |
        grep -nE 'fn (overlay|filter_mut)\b|note_(sync_applied|predict_failure|shed)\b|lanes\.restore\('; then
        echo "$src keeps a second copy of a shard's filters in step again (overlay / filter_mut / note_* / lanes.restore)" >&2
        exit 1
    fi
done
if sed -n '/^pub(crate) struct Shard {/,/^}/p' crates/core/src/ingest.rs | grep -vE '^ *//' |
    grep -nw ServerEndpoint; then
    echo "crates/core/src/ingest.rs: Shard holds ServerEndpoints again; it holds protocol halves and lanes" >&2
    exit 1
fi
if sed '/#\[cfg(test)\]/,$d' crates/core/src/batch_ingest.rs | grep -vE '^ *//' |
    grep -nw ServerEndpoint; then
    echo "crates/core/src/batch_ingest.rs takes or returns ServerEndpoints again; its lanes hold filters" >&2
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

echo "==> the router reads the sockets: no reader thread, no tick message"
if grep -rnE 'net-reader|reader_thread|RouterMsg::(Tick|Eof)|conn_slot' crates src tests examples; then
    echo "the per-connection reader thread is back: the router reads each connection into its TickCutter" >&2
    exit 1
fi
if sed '/#\[cfg(test)\]/,$d' crates/net/src/server.rs | grep -nw feed_ticks; then
    echo "crates/net/src/server.rs cuts ticks with feed_ticks again; it cuts in place with TickCutter" >&2
    exit 1
fi

echo "==> a flush waits for the buffers: no flush job, no ack channel"
# A worker hands each tick's buffer back as the tick's last act, so
# IngestPipeline::flush is every buffer back on recycle_rx, with no job sent
# and no reply awaited.
if grep -nwE 'ShardJob::Flush|ack_tx|ack_rx' crates/core/src/ingest.rs; then
    echo "crates/core/src/ingest.rs has a flush job or an ack channel again; flush waits on recycle_rx until every buffer is back" >&2
    exit 1
fi

echo "==> ci/pairs.sh parses (the paired parent-vs-change benchmark runner; nothing in CI runs it)"
bash -n ci/pairs.sh

echo "==> cargo build --release --workspace"
cargo build --release --workspace

echo "==> cargo test -q --workspace"
cargo test -q --workspace

# vendor/* is excluded from the workspace, so the run above skips the
# stand-ins' own tests; every tick runs through crossbeam's and bytes'.
echo "==> the vendored stand-ins' own tests"
for stub in vendor/*/; do
    cargo test -q --offline --manifest-path "${stub}Cargo.toml"
done

echo "==> every example runs once in release and asserts its own claims"
for example in examples/*.rs; do
    cargo run --release -q --example "$(basename "$example" .rs)" >/dev/null
done

echo "==> cargo clippy --workspace --all-targets -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo fmt --all --check"
cargo fmt --all --check

echo "ci/check.sh: OK"
