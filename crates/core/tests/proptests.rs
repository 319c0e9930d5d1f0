//! Property-based tests over the protocol layer: the suppression invariant,
//! measurement pinning, wire-format totality, and allocation feasibility —
//! for arbitrary (well-formed) inputs, not just unit-test cases.

use kalstream_core::{
    pin_to_measurement, wire::SyncMessage, BudgetAllocator, Estimator, FrameBatch, FrameDecoder,
    IngestPipeline, ProtocolConfig, SequentialIngest, ServerEndpoint, SessionSpec, SourceEndpoint,
    StreamDemand, StreamSession,
};
use kalstream_filter::{models, KalmanFilter};
use kalstream_linalg::{Matrix, Vector};
use kalstream_sim::Producer;
use proptest::prelude::*;

fn source_with(delta: f64, q: f64, r: f64) -> SourceEndpoint {
    SessionSpec::fixed(
        models::random_walk(q, r),
        Vector::zeros(1),
        1.0,
        ProtocolConfig::new(delta).unwrap(),
    )
    .unwrap()
    .build()
    .split()
    .0
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn shadow_always_within_delta_after_decision(
        delta in 0.05..5.0f64,
        q in 1e-4..0.5f64,
        r in 1e-4..0.5f64,
        zs in prop::collection::vec(-50.0..50.0f64, 1..80),
    ) {
        // The protocol invariant at the source: after every decision, the
        // shadow (= server) prediction is within δ of the observation.
        let mut source = source_with(delta, q, r);
        for &z in &zs {
            let _ = source.decide(&[z]);
            let served = source.shadow_predicted_value();
            prop_assert!(
                (served - z).abs() <= delta * (1.0 + 1e-9) + 1e-12,
                "served {served} vs z {z} at delta {delta}"
            );
        }
    }

    #[test]
    fn sync_iff_prediction_escapes_delta(
        delta in 0.1..2.0f64,
        jump in -20.0..20.0f64,
    ) {
        // Settle on 0, then observe `jump`: a sync must happen exactly when
        // |prediction − jump| > δ, i.e. (for a settled walk) |jump| > δ.
        let mut source = source_with(delta, 0.001, 0.001);
        for _ in 0..100 {
            source.decide(&[0.0]);
        }
        let pred = {
            // Clone to peek at the would-be prediction without mutating.
            let mut probe = source.clone();
            probe.decide(&[0.0]);
            probe.shadow_predicted_value()
        };
        let synced = source.decide(&[jump]).is_some();
        let escape = (pred - jump).abs() > delta;
        prop_assert_eq!(synced, escape, "pred {} jump {} delta {}", pred, jump, delta);
    }

    #[test]
    fn pinning_contract(
        x in prop::collection::vec(-100.0..100.0f64, 2),
        z in -100.0..100.0f64,
    ) {
        let h = Matrix::from_rows(&[&[1.0, 0.0]]);
        let xv = Vector::from_slice(&x);
        let zv = Vector::from_slice(&[z]);
        let pinned = pin_to_measurement(&xv, &h, &zv).unwrap();
        // Exact in the measurement subspace, untouched elsewhere.
        prop_assert!((pinned[0] - z).abs() < 1e-9);
        prop_assert_eq!(pinned[1], x[1]);
    }

    #[test]
    fn wire_decode_never_panics(payload in prop::collection::vec(any::<u8>(), 0..512)) {
        let _ = SyncMessage::decode(&payload);
    }

    #[test]
    fn wire_encoded_len_is_exact(
        xs in prop::collection::vec(-1e9..1e9f64, 1..6),
    ) {
        let n = xs.len();
        let msg = SyncMessage::State {
            x: Vector::from_slice(&xs),
            p: Matrix::identity(n),
        };
        prop_assert_eq!(msg.encode().len(), msg.encoded_len());
        let model_msg = SyncMessage::Model {
            model: Box::new(models::random_walk(0.1, 0.1)),
            x: Vector::from_slice(&xs[..1]),
            p: Matrix::identity(1),
        };
        prop_assert_eq!(model_msg.encode().len(), model_msg.encoded_len());
        let meas_msg = SyncMessage::Measurement { z: Vector::from_slice(&xs) };
        prop_assert_eq!(meas_msg.encode().len(), meas_msg.encoded_len());
    }

    #[test]
    fn allocation_respects_budget_and_ordering(
        scales in prop::collection::vec(0.01..10.0f64, 2..8),
        budget in 0.05..3.0f64,
    ) {
        let demands: Vec<StreamDemand> = scales
            .iter()
            .map(|&s| {
                let samples: Vec<f64> = (1..=40).map(|k| s * k as f64 / 40.0).collect();
                StreamDemand::new(samples, 1.0).unwrap()
            })
            .collect();
        let result = BudgetAllocator::allocate(&demands, budget).unwrap();
        prop_assert!(result.predicted_rate <= budget + 1e-9);
        prop_assert_eq!(result.deltas.len(), demands.len());
        prop_assert!(result.deltas.iter().all(|d| d.is_finite() && *d >= 0.0));
        // Uniform comparator is also feasible and never cheaper in weighted
        // imprecision.
        let uniform = BudgetAllocator::allocate_uniform(&demands, budget).unwrap();
        prop_assert!(uniform.predicted_rate <= budget + 1e-9);
        let cost = |r: &kalstream_core::AllocationResult| r.deltas.iter().sum::<f64>();
        prop_assert!(cost(&result) <= cost(&uniform) + 1e-9);
    }

    #[test]
    fn estimator_enum_is_consistent(
        zs in prop::collection::vec(-10.0..10.0f64, 1..40),
    ) {
        let kf = KalmanFilter::new(models::random_walk(0.05, 0.05), Vector::zeros(1), 1.0)
            .unwrap();
        let mut est = Estimator::Fixed(kf);
        for &z in &zs {
            est.step(&Vector::from_slice(&[z])).unwrap();
            prop_assert_eq!(est.measurement_dim(), 1);
            prop_assert!(est.active().state().is_finite());
        }
    }
    #[test]
    fn cloned_source_replays_byte_identical_traffic(
        delta in 0.05..2.0f64,
        zs in prop::collection::vec(-20.0..20.0f64, 20..120),
    ) {
        // The suppression protocol's precision guarantee rests on a cloned
        // filter replaying *bit-identically* — including after the hot path
        // moved onto reusable scratch buffers. Run a source halfway through
        // a trace (dirtying its scratch), clone it (the clone starts with
        // empty scratch), and replay the second half on both: every wire
        // message must encode to exactly the same bytes.
        let mut original = source_with(delta, 0.01, 0.05);
        let half = zs.len() / 2;
        for &z in &zs[..half] {
            let _ = original.decide(&[z]);
        }
        let mut replica = original.clone();
        for &z in &zs[half..] {
            let a = original.decide(&[z]);
            let b = replica.decide(&[z]);
            match (a, b) {
                (None, None) => {}
                (Some(ma), Some(mb)) => {
                    prop_assert_eq!(ma.encode(), mb.encode(), "wire bytes diverged");
                }
                (a, b) => prop_assert!(false, "sync decisions diverged: {a:?} vs {b:?}"),
            }
        }
        prop_assert_eq!(
            original.shadow_predicted_value(),
            replica.shadow_predicted_value()
        );
    }

    #[test]
    fn frame_batch_roundtrips_any_messages(
        msgs in prop::collection::vec(
            (any::<u32>(), prop::collection::vec(-1e6..1e6f64, 1..5)),
            0..20,
        ),
    ) {
        let expect: Vec<(u32, SyncMessage)> = msgs
            .iter()
            .map(|(id, xs)| {
                let msg = SyncMessage::State {
                    x: Vector::from_slice(xs),
                    p: Matrix::identity(xs.len()),
                };
                (*id, msg)
            })
            .collect();
        let mut batch = FrameBatch::new();
        for (id, msg) in &expect {
            batch.push(*id, msg);
        }
        let mut dec = FrameDecoder::new();
        let mut got = Vec::new();
        dec.for_each_message(batch.as_bytes(), |id, m| got.push((id, m)));
        prop_assert_eq!(dec.decode_failures(), 0);
        prop_assert_eq!(got, expect);
    }

    #[test]
    fn frame_walk_never_panics_on_garbage(
        wire in prop::collection::vec(any::<u8>(), 0..256),
    ) {
        // Any byte soup: the walk terminates without panicking, and running
        // it twice is deterministic — same frames, same failure count.
        let mut dec_a = FrameDecoder::new();
        let mut frames_a = 0u64;
        dec_a.for_each_message(&wire, |_, _| frames_a += 1);
        let mut dec_b = FrameDecoder::new();
        let mut frames_b = 0u64;
        dec_b.for_each_message(&wire, |_, _| frames_b += 1);
        prop_assert_eq!(frames_a, frames_b);
        prop_assert_eq!(dec_a.decode_failures(), dec_b.decode_failures());
    }

    #[test]
    fn corrupt_frame_bodies_do_not_desync_the_batch(
        garbage in prop::collection::vec(any::<u8>(), 0..64),
        xs in prop::collection::vec(-100.0..100.0f64, 1..4),
    ) {
        // valid frame / arbitrary-body frame / valid frame: whatever the
        // middle bytes are, the length prefix carries the framing, so the
        // outer frames always survive and a bad body is counted, not fatal.
        let good = SyncMessage::State {
            x: Vector::from_slice(&xs),
            p: Matrix::identity(xs.len()),
        };
        let mut batch = FrameBatch::new();
        batch.push(1, &good);
        batch.push_raw(2, &garbage);
        batch.push(3, &good);

        let mut dec = FrameDecoder::new();
        let mut ids = Vec::new();
        dec.for_each_message(batch.as_bytes(), |id, _| ids.push(id));
        prop_assert!(ids.contains(&1) && ids.contains(&3), "outer frames lost: {ids:?}");
        // The garbage body either happened to parse (rare) or was counted.
        let failures = u64::from(!ids.contains(&2));
        prop_assert_eq!(dec.decode_failures(), failures);

        // Truncating the batch anywhere must not panic either; a cut
        // mid-frame is at most one more counted failure.
        let wire = batch.as_bytes();
        let cut = garbage.len().min(wire.len().saturating_sub(1));
        let mut dec = FrameDecoder::new();
        dec.for_each_message(&wire[..wire.len() - cut], |_, _| {});
    }

    #[test]
    fn sharded_ingest_matches_sequential_for_any_shard_count(
        signals in prop::collection::vec(prop::collection::vec(-10.0..10.0f64, 20), 2..8),
        shards in 1usize..7,
    ) {
        // Record one framed log from real sources, then drain it through the
        // sequential reference and through a sharded pipeline with an
        // arbitrary shard count: message totals and every server filter must
        // be bit-identical.
        let ticks = 20usize;
        let mut sources: Vec<SourceEndpoint> = Vec::new();
        let mut servers: Vec<(u32, ServerEndpoint)> = Vec::new();
        for id in 0..signals.len() as u32 {
            let config = ProtocolConfig::new(0.3).unwrap();
            let StreamSession { source, server } =
                SessionSpec::default_scalar(0.0, config).unwrap().build();
            sources.push(source);
            servers.push((id, server));
        }
        let mut log: Vec<Vec<u8>> = Vec::with_capacity(ticks);
        for t in 0..ticks {
            let mut batch = FrameBatch::new();
            for (id, signal) in signals.iter().enumerate() {
                if let Some(payload) = sources[id].observe(t as u64, &[signal[t]]) {
                    batch.push_raw(id as u32, &payload);
                }
            }
            log.push(batch.as_bytes().to_vec());
        }

        let mut seq = SequentialIngest::new(servers.clone());
        for tick in &log {
            seq.ingest_tick(tick);
        }
        let seq_result = seq.finish();

        let mut pipe = IngestPipeline::start(shards, servers);
        for tick in &log {
            pipe.ingest_tick(tick);
        }
        let result = pipe.finish();

        let bits = |ep: &ServerEndpoint| -> Vec<u64> {
            let f = ep.filter();
            f.state()
                .iter()
                .map(|v| v.to_bits())
                .chain(f.covariance().as_slice().iter().map(|v| v.to_bits()))
                .collect()
        };
        prop_assert_eq!(result.total_messages(), seq_result.total_messages());
        prop_assert_eq!(result.endpoints.len(), seq_result.endpoints.len());
        for ((id_a, a), (id_b, b)) in result.endpoints.iter().zip(seq_result.endpoints.iter()) {
            prop_assert_eq!(id_a, id_b);
            prop_assert_eq!(bits(a), bits(b), "stream {} diverged at {} shards", id_a, shards);
            prop_assert_eq!(a.syncs_applied(), b.syncs_applied());
        }
    }
}
