//! Counter-migration regression gates: the move of the simulator's metric
//! structs onto `kalstream_obs::Counter` must not change a single recorded
//! digit ("counters move, semantics don't").
//!
//! * Property tests drive the migrated [`TrafficMetrics`] against a
//!   plain-`u64` reference model and assert the **formatted output** — the
//!   exact `to_string()` / `fmt_f` rendering the `exp_t3_bytes` table is
//!   built from — matches byte-for-byte.
//! * A harness-level determinism test runs the same experiment twice and
//!   asserts the serialized observability snapshots are identical, the
//!   property the CI artifact diffing relies on.

use kalstream::obs::{Instrument, Registry};
use kalstream::sim::TrafficMetrics;
use kalstream_bench::harness::{run_method, StreamFamily};
use kalstream_bench::table::fmt_f;
use proptest::prelude::*;

/// The exp_t3_bytes row cells, rendered exactly as the binary renders them.
fn t3_row_cells(messages: u64, bytes: u64) -> [String; 3] {
    [
        messages.to_string(),
        bytes.to_string(),
        fmt_f(if messages == 0 {
            0.0
        } else {
            bytes as f64 / messages as f64
        }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// TrafficMetrics over Counter vs a plain-u64 reference: identical
    /// totals AND identical formatted table cells on any message sequence.
    #[test]
    fn traffic_metrics_match_u64_reference_model(
        sizes in prop::collection::vec(0usize..4096, 0..200),
    ) {
        let mut migrated = TrafficMetrics::default();
        let (mut ref_messages, mut ref_bytes) = (0u64, 0u64);
        for &size in &sizes {
            migrated.record(size);
            ref_messages += 1;
            ref_bytes += size as u64;
        }
        prop_assert_eq!(migrated.messages(), ref_messages);
        prop_assert_eq!(migrated.bytes(), ref_bytes);
        prop_assert_eq!(
            t3_row_cells(migrated.messages(), migrated.bytes()),
            t3_row_cells(ref_messages, ref_bytes)
        );
    }

    /// Merging (fleet aggregation) agrees with summing the reference models.
    #[test]
    fn traffic_merge_matches_scalar_addition(
        a in prop::collection::vec(0usize..4096, 0..100),
        b in prop::collection::vec(0usize..4096, 0..100),
    ) {
        let mut left = TrafficMetrics::default();
        let mut right = TrafficMetrics::default();
        for &s in &a { left.record(s); }
        for &s in &b { right.record(s); }
        left.merge(&right);
        prop_assert_eq!(left.messages(), (a.len() + b.len()) as u64);
        prop_assert_eq!(
            left.bytes(),
            a.iter().chain(&b).map(|&s| s as u64).sum::<u64>()
        );
    }
}

/// Two identical runs of an exp_t3-style cell produce byte-identical table
/// cells and byte-identical serialized snapshots — the determinism contract
/// the recorded tables and the CI metrics artifacts both rest on.
#[test]
fn identical_runs_serialize_identical_snapshots() {
    let run_once = || {
        let run = run_method(
            kalstream::baselines::PolicyKind::KalmanFixed,
            StreamFamily::Ramp,
            2.0 * StreamFamily::Ramp.natural_scale(),
            2_000,
            50,
        );
        let mut registry = Registry::new();
        run.report.export(&mut registry.scope("run"));
        let cells = t3_row_cells(run.report.traffic.messages(), run.report.traffic.bytes());
        (cells, registry.snapshot().to_json())
    };
    let (cells_a, json_a) = run_once();
    let (cells_b, json_b) = run_once();
    assert_eq!(cells_a, cells_b);
    assert_eq!(json_a, json_b);
    assert!(json_a.contains("\"run.traffic.messages\""));
}
