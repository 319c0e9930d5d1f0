//! Integration: the loss-tolerant delivery layer — sequence numbers, the
//! reverse ack channel, and timeout-driven full resync.
//!
//! The contract under test, end to end:
//!
//! * **Regression (pre-fix behaviour):** without recovery, one dropped
//!   State sync leaves server and shadow divergent indefinitely on a
//!   stream the shadow then models perfectly — the bare protocol has no
//!   way to notice.
//! * With recovery, the divergence is detected within the configured ack
//!   timeout and repaired by a forced Model+State resync the same tick.
//! * At zero effective loss (reliable link, or duplication-only faults —
//!   every payload still arrives, duplicates are stale-dropped), the
//!   sequenced path is bit-identical to the reliable v2 baseline.
//! * Any loss/duplication schedule on either direction, followed by a
//!   fault-free tail, re-converges server and shadow **bit-identically**
//!   within the ack timeout.

use bytes::Bytes;
use kalstream::core::{ProtocolConfig, ServerEndpoint, SessionSpec, SourceEndpoint};
use kalstream::filter::KalmanFilter;
use kalstream::gen::{synthetic::RandomWalk, Stream};
use kalstream::sim::{Consumer, ErrorSeries, Producer, Session, SessionConfig};
use proptest::prelude::*;

const DELTA: f64 = 1.0;

fn endpoints(ack_timeout: Option<u64>) -> (SourceEndpoint, ServerEndpoint) {
    let mut proto = ProtocolConfig::new(DELTA).unwrap();
    if let Some(t) = ack_timeout {
        proto = proto.with_ack_timeout(t).unwrap();
    }
    SessionSpec::default_scalar(0.0, proto)
        .unwrap()
        .build()
        .split()
}

/// State + covariance as raw bits — "bit-identical" means exactly this.
fn filter_bits(f: &KalmanFilter) -> (Vec<u64>, Vec<u64>) {
    (
        f.state().as_slice().iter().map(|v| v.to_bits()).collect(),
        f.covariance()
            .as_slice()
            .iter()
            .map(|v| v.to_bits())
            .collect(),
    )
}

/// One zero-latency protocol tick outside the simulator, with the forward
/// payload passed through `forward` (deliver, drop, or duplicate) and each
/// ack through `ack_ok`. Mirrors the fleet tick's order (the crate doc
/// of `kalstream::sim`, "The tick").
fn manual_tick(
    now: u64,
    obs: &[f64],
    source: &mut SourceEndpoint,
    server: &mut ServerEndpoint,
    forward: impl FnOnce(Bytes) -> Vec<Bytes>,
    mut ack_ok: impl FnMut() -> bool,
) -> f64 {
    if let Some(payload) = source.observe(now, obs) {
        for copy in forward(payload) {
            server.receive(now, &copy);
        }
    }
    let mut est = [0.0];
    server.estimate(now, &mut est);
    while let Some(ack) = server.poll_feedback(now) {
        if ack_ok() {
            source.feedback(now, &ack);
        }
    }
    est[0]
}

/// Satellite regression: a single dropped State sync. Pre-fix (no ack
/// layer) the server serves a stale value forever — the shadow believes it
/// synced, models the new level perfectly, and never transmits again.
#[test]
fn dropped_sync_diverges_forever_without_recovery() {
    let (mut source, mut server) = endpoints(None);
    for now in 0..10u64 {
        manual_tick(now, &[0.0], &mut source, &mut server, |p| vec![p], || true);
    }
    // The jump to 5.0 forces a sync — which the link eats.
    let mut violations = 0;
    for now in 10..300u64 {
        let est = manual_tick(
            now,
            &[5.0],
            &mut source,
            &mut server,
            |p| if now == 10 { vec![] } else { vec![p] },
            || true,
        );
        if (est - 5.0).abs() > DELTA {
            violations += 1;
        }
    }
    // The source never retransmits (its shadow thinks the sync landed), so
    // every post-drop tick violates the bound and the ends stay divergent.
    assert_eq!(violations, 290, "bare protocol must stay divergent forever");
    assert_eq!(source.syncs(), 1, "shadow believes its one sync landed");
    assert_ne!(
        filter_bits(source.shadow_filter()),
        filter_bits(server.filter()),
        "server and shadow must still disagree at the end"
    );
}

/// The fix: same drop, recovery on. The unacked sync trips the timeout,
/// a full Model+State resync is cut, and the ends re-converge bit-exactly.
#[test]
fn dropped_sync_is_repaired_within_ack_timeout() {
    const TIMEOUT: u64 = 6;
    let (mut source, mut server) = endpoints(Some(TIMEOUT));
    for now in 0..10u64 {
        manual_tick(now, &[0.0], &mut source, &mut server, |p| vec![p], || true);
    }
    let mut violation_ticks = Vec::new();
    for now in 10..300u64 {
        let est = manual_tick(
            now,
            &[5.0],
            &mut source,
            &mut server,
            |p| if now == 10 { vec![] } else { vec![p] },
            || true,
        );
        if (est - 5.0).abs() > DELTA {
            violation_ticks.push(now);
        }
        if now > 10 + TIMEOUT {
            assert_eq!(
                filter_bits(source.shadow_filter()),
                filter_bits(server.filter()),
                "tick {now}: ends must be bit-identical after the repair"
            );
        }
    }
    assert_eq!(
        source.resyncs(),
        1,
        "exactly one timeout resync repairs the drop"
    );
    assert!(source.acked_seq() >= 2, "the resync must have been acked");
    assert!(
        violation_ticks.len() as u64 <= TIMEOUT + 1,
        "divergence window {:?} exceeds the ack timeout",
        violation_ticks
    );
    assert!(violation_ticks.iter().all(|&t| t <= 10 + TIMEOUT));
}

fn run_session(
    ack_timeout: Option<u64>,
    dup: f64,
    seed: u64,
    stream_seed: u64,
    ticks: u64,
) -> (
    ErrorSeries,
    kalstream::sim::SessionReport,
    SourceEndpoint,
    ServerEndpoint,
) {
    let (mut source, mut server) = endpoints(ack_timeout);
    let mut stream = RandomWalk::new(0.0, 0.0, 0.3, 0.05, stream_seed);
    let config = SessionConfig {
        loss_seed: seed,
        ..SessionConfig::instant(ticks, DELTA)
    }
    .with_link_faults(dup, 0.0, 0);
    let mut series = ErrorSeries::default();
    let report = Session::run(
        &config,
        |obs, tru| stream.next_into(obs, tru),
        &mut source,
        &mut server,
        &mut series,
    );
    (series, report, source, server)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Zero effective loss: a duplication-only fault schedule delivers every
    /// payload (plus copies the server stale-drops), so the sequenced path
    /// must remain bit-identical — per tick and in final filter state — to
    /// the recovery-off run on a reliable link.
    #[test]
    fn dup_only_schedules_are_bit_identical_to_the_reliable_baseline(
        dup in 0.05..0.9f64,
        fault_seed in any::<u64>(),
        stream_seed in 0..1_000u64,
    ) {
        let ticks = 2_000;
        let (base_series, base_report, _, base_server) =
            run_session(None, 0.0, 0, stream_seed, ticks);
        let (rec_series, rec_report, rec_source, rec_server) =
            run_session(Some(8), dup, fault_seed, stream_seed, ticks);

        let base_bits: Vec<u64> = base_series.errors.iter().map(|e| e.to_bits()).collect();
        let rec_bits: Vec<u64> = rec_series.errors.iter().map(|e| e.to_bits()).collect();
        prop_assert_eq!(base_bits, rec_bits, "per-tick errors must match bit-for-bit");
        prop_assert_eq!(base_report.traffic.messages(), rec_report.traffic.messages());
        prop_assert_eq!(
            filter_bits(base_server.filter()),
            filter_bits(rec_server.filter())
        );
        prop_assert_eq!(rec_report.error_vs_observed.violations(), 0);
        prop_assert_eq!(rec_source.resyncs(), 0, "nothing was lost, nothing to repair");
        // Every duplicate the link injected was deterministically dropped.
        prop_assert_eq!(
            rec_report.delivery.stale_drops,
            rec_report.faults.duplicated
        );
    }

    /// Any loss/duplication schedule on both directions, followed by a
    /// fault-free tail: within the ack timeout of the last fault the two
    /// ends are bit-identical again, and stay that way.
    #[test]
    fn any_loss_dup_schedule_reconverges_within_the_ack_timeout(
        forward in prop::collection::vec(0..10u8, 1..40),
        ack_drops in prop::collection::vec(any::<bool>(), 1..20),
        stream_seed in 0..1_000u64,
    ) {
        const TIMEOUT: u64 = 8;
        const FAULTY: u64 = 200;
        const TAIL: u64 = 60;
        let (mut source, mut server) = endpoints(Some(TIMEOUT));
        let mut stream = RandomWalk::new(0.0, 0.0, 0.4, 0.05, stream_seed);
        let mut obs = [0.0];
        let mut tru = [0.0];
        let mut sends = 0usize;
        let mut acks = 0usize;
        for now in 0..FAULTY + TAIL {
            stream.next_into(&mut obs, &mut tru);
            let in_faulty = now < FAULTY;
            manual_tick(
                now,
                &obs,
                &mut source,
                &mut server,
                |p| {
                    // Schedule entries: 0..4 drop, 4..7 duplicate, else deliver.
                    let action = if in_faulty { forward[sends % forward.len()] } else { 9 };
                    sends += 1;
                    match action {
                        0..=3 => vec![],
                        4..=6 => vec![p.clone(), p],
                        _ => vec![p],
                    }
                },
                || {
                    let ok = !(in_faulty && ack_drops[acks % ack_drops.len()]);
                    acks += 1;
                    ok
                },
            );
            if now >= FAULTY + TIMEOUT {
                prop_assert_eq!(
                    filter_bits(source.shadow_filter()),
                    filter_bits(server.filter()),
                    "tick {}: not reconverged within the ack timeout", now
                );
            }
        }
        prop_assert!(source.acked_seq() > 0, "the tail must drain outstanding acks");
    }
}

/// Under 10% injected loss, recovery detects and repairs what the bare
/// protocol silently suffers — the `exp_loss_recovery` acceptance numbers.
#[test]
fn ten_percent_loss_recovery_beats_bare_protocol() {
    let run = |recovery: Option<u64>| {
        let (mut source, mut server) = endpoints(recovery);
        let mut stream = RandomWalk::new(0.0, 0.0, 0.08, 0.02, 91);
        let config = SessionConfig::instant_lossy(20_000, DELTA, 0.1, 4242);
        let report = Session::run(
            &config,
            |obs, tru| stream.next_into(obs, tru),
            &mut source,
            &mut server,
            &mut (),
        );
        (report, source)
    };
    let (bare, bare_source) = run(None);
    let (rec, rec_source) = run(Some(10));
    assert!(
        bare.error_vs_observed.violations() > 1_000,
        "loss must hurt the bare protocol"
    );
    assert_eq!(bare_source.resyncs(), 0);
    assert!(
        rec.error_vs_observed.violations() * 4 < bare.error_vs_observed.violations(),
        "recovery {} vs bare {}",
        rec.error_vs_observed.violations(),
        bare.error_vs_observed.violations()
    );
    assert!(
        rec_source.resyncs() > 0,
        "repairs must come from timeout resyncs"
    );
    assert!(rec.faults.dropped > 0);
    assert!(
        rec.ack_traffic.messages() > 0,
        "the reverse channel must carry acks"
    );
}

/// Seq/ack recovery over a *real socket*: the TCP transport's connection
/// is killed mid-stream (losing every frame in flight), transparently
/// reconnected, and the ack layer must notice the gap and force a resync
/// — within the ack timeout, with the precision contract holding at every
/// tick outside the post-kill repair windows.
#[test]
fn killed_tcp_connection_resyncs_within_ack_timeout() {
    use kalstream::net::TcpTransport;
    use kalstream::sim::{run_lockstep_over, LockstepStream, Transport};

    const TIMEOUT: u64 = 6;
    const TICKS: u64 = 120;
    let kills = vec![30u64, 71];

    // A level step exactly at each kill tick forces a sync that dies with
    // the connection; the flat stretch after it keeps the shadow silent
    // (it believes the sync landed and models the level perfectly), so
    // only the ack timeout can repair the divergence — the worst case for
    // the recovery layer, over a real socket.
    let level = |now: u64| -> f64 {
        if now < kills[0] {
            0.0
        } else if now < kills[1] {
            5.0
        } else {
            -3.0
        }
    };
    let (source, server) = endpoints(Some(TIMEOUT));
    let mut tick = 0;
    let mut fleet = [LockstepStream {
        producer: source,
        consumer: server,
        sampler: Box::new(move |obs: &mut [f64], tru: &mut [f64]| {
            obs[0] = level(tick);
            tru[0] = obs[0];
            tick += 1;
        }),
    }];
    let mut transport = [TcpTransport::connect(0, 28)
        .expect("loopback transport")
        .kill_at(kills.clone())];

    let mut violation_ticks = Vec::new();
    let config = SessionConfig::instant(TICKS, DELTA);
    run_lockstep_over(&config, &mut fleet, &mut transport, |now, tick, fleet| {
        if (tick.estimates[0][0] - tick.observed[0][0]).abs() > DELTA {
            violation_ticks.push(now);
        }
        // Bit-identity of the two ends must be restored within the ack
        // timeout of each kill and hold everywhere else.
        let in_repair_window = kills.iter().any(|&k| now >= k && now <= k + TIMEOUT);
        if !in_repair_window {
            assert_eq!(
                filter_bits(fleet[0].producer.shadow_filter()),
                filter_bits(fleet[0].consumer.filter()),
                "tick {now}: shadow and server diverged outside a repair window"
            );
        }
    });
    let [transport] = &mut transport;
    transport.shutdown();

    assert_eq!(transport.reconnects(), 2, "both scheduled kills happened");
    assert!(
        fleet[0].producer.resyncs() >= 2,
        "each kill must trigger a timeout resync (got {})",
        fleet[0].producer.resyncs()
    );
    // Precision violations only inside the repair windows.
    assert!(
        violation_ticks
            .iter()
            .all(|&t| kills.iter().any(|&k| t >= k && t <= k + TIMEOUT)),
        "violations outside repair windows: {violation_ticks:?}"
    );
    let stats = transport.stats();
    assert!(stats.feedback.messages() > 0, "acks must ride the socket");
}

/// The full fault matrix — loss, duplication, reordering, and jitter at
/// once — is deterministic per seed: stale/out-of-order syncs are dropped
/// the same way every run, and the session survives with finite output.
#[test]
fn full_fault_matrix_is_deterministic_and_survivable() {
    let run = || {
        let (mut source, mut server) = endpoints(Some(10));
        let mut stream = RandomWalk::new(0.0, 0.0, 0.3, 0.05, 17);
        let config =
            SessionConfig::instant_lossy(10_000, DELTA, 0.05, 7).with_link_faults(0.1, 0.1, 2);
        let report = Session::run(
            &config,
            |obs, tru| stream.next_into(obs, tru),
            &mut source,
            &mut server,
            &mut (),
        );
        (
            report.error_vs_observed.violations(),
            report.traffic.messages(),
            report.faults,
            report.delivery,
            source.resyncs(),
            filter_bits(server.filter()),
        )
    };
    let a = run();
    let b = run();
    assert_eq!(
        a, b,
        "same seed must replay the same fault schedule exactly"
    );
    let (violations, _, faults, delivery, resyncs, _) = a;
    assert!(faults.dropped > 0 && faults.duplicated > 0 && faults.reordered > 0);
    assert!(
        delivery.stale_drops > 0,
        "duplicates/out-of-order syncs must be stale-dropped"
    );
    assert!(resyncs > 0);
    assert!(
        violations < 10_000,
        "the session must keep serving through the fault matrix"
    );
}
