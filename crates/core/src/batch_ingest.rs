//! The shard's filters: its streams stepped as structure-of-arrays lanes,
//! grouped by dynamics.
//!
//! Every ingest shard ([`crate::SequentialIngest`], each
//! [`crate::IngestPipeline`] worker, so each `NetServer` shard) keeps each
//! stream's filter on a [`DynFleetBatch`] lane, in the group of the filters
//! that share its `F`, `H` and covariance form, and advances whole groups
//! with one `predict_all` per tick. The lane is the only copy of the
//! filter while the shard owns the stream: a group's batch holds `F`, `H`
//! and the form, and each lane its stream's `x`, `P`, `Q`, `R`, staleness
//! and model name. So filters that differ only in their noise — adaptive
//! sources each ship their own — share a group. Every shape a filter
//! admits has a batch row, exact or zero-padded
//! ([`DynFleetBatch::for_model_in_form`]), so no stream is stepped any
//! other way. Sequence bookkeeping, counters and feedback are the shard's
//! per-stream protocol half (`crate::server::ProtocolHalf`);
//! [`BatchLanes::filter`] assembles a lane back into a filter when the
//! shard snapshots its streams or hands them back.
//!
//! ## Equivalence
//!
//! A lane runs a lone filter's kernel in the same floating-point order,
//! with that filter's own `Q` and `R` (see `kalstream_filter::FleetBatch`),
//! and [`BatchLanes::apply`] applies each admitted sync to it through the
//! operations `apply_sync` runs on a filter, in the same per-stream order.
//! The lanes therefore leave **bit-identical endpoints** to stepping each
//! endpoint's own filter — the invariant this module's tests hold against
//! a plain loop of `ServerEndpoint::predict` / `admit_view` /
//! `apply_view`, including:
//!
//! * a **model sync**, shape-checked once into the filter it installs
//!   (`crate::server::model_filter`). One that keeps `F`, `H` and the form
//!   — every ack-timeout resync of a fixed or adaptive source — rewrites
//!   the lane in place (`x`, `P`, `Q`, `R`, name). One that changes them
//!   *moves* the stream to a lane, seeded from that filter, of the group
//!   for its new dynamics (created on demand; a group left empty is
//!   dropped). The tick's later syncs land on the new lane; the old
//!   group's last lane fills the gap, and the slot → lane map follows it;
//! * a **non-finite** lane, which stays where it is: its predict failures
//!   are counted per tick and a later state sync heals it in place, as for
//!   a lone filter.

use std::sync::Arc;

use kalstream_filter::{DynFleetBatch, KalmanFilter};
use kalstream_linalg::DIM_CAP;

use crate::ingest::SequentialIngest;
use crate::server::model_filter;
use crate::wire::SyncRef;

/// One lane group: the streams whose filters share `F`, `H` and a
/// covariance form.
struct BatchGroup {
    batch: DynFleetBatch,
    /// `slots[lane]` is the slot of the stream on that lane.
    slots: Vec<usize>,
}

/// The filters of one shard's streams, as fleet-batch lanes. A stream is
/// addressed by its *slot*, its position in the shard's id-sorted list.
#[derive(Default)]
pub(crate) struct BatchLanes {
    groups: Vec<BatchGroup>,
    /// `lane_of[slot]` is the `(group, lane)` carrying stream `slot`'s
    /// filter — the inverse of the groups' `slots`, kept in step across
    /// every move.
    lane_of: Vec<(u32, u32)>,
    /// `names[slot]` is stream `slot`'s model name — the one part of its
    /// model no batch holds.
    names: Vec<Arc<str>>,
}

impl BatchLanes {
    /// Puts `filter`, as the next slot's, on a lane of its dynamics' group.
    pub(crate) fn push(&mut self, filter: &KalmanFilter) {
        let at = self.add(self.lane_of.len(), filter);
        self.lane_of.push(at);
        self.names.push(shared_name(filter, self.names.last()));
    }

    /// The index of the group for `filter`'s `(F, H, form)`, created when
    /// there is none. A shard holds one group per distinct dynamics — one
    /// for every recorded workload — so a walk is all the lookup needs.
    fn group_for(&mut self, filter: &KalmanFilter) -> usize {
        let (model, form) = (filter.model(), filter.covariance_update());
        if let Some(g) = self.groups.iter().position(|g| g.batch.runs(model, form)) {
            return g;
        }
        let batch = DynFleetBatch::for_model_in_form(model, form)
            .expect("every admitted filter shape has a batch row");
        self.groups.push(BatchGroup {
            batch,
            slots: Vec::new(),
        });
        self.groups.len() - 1
    }

    /// Appends a lane for stream `slot`, seeded from `filter`, to the
    /// group for its dynamics; returns its `(group, lane)`.
    fn add(&mut self, slot: usize, filter: &KalmanFilter) -> (u32, u32) {
        let group = self.group_for(filter);
        let g = &mut self.groups[group];
        let lane = g
            .batch
            .push_filter(filter)
            .expect("a filter's shape matches its own model");
        g.slots.push(slot);
        (group as u32, lane as u32)
    }

    /// The predict phase of a tick: every group predicts as one fleet, and
    /// `failed` is handed the slot of each lane that comes out non-finite —
    /// where a lone filter's predict fails.
    pub(crate) fn predict(&mut self, mut failed: impl FnMut(usize)) {
        for group in self.groups.iter_mut() {
            if group.batch.predict_all() > 0 {
                for (lane, &slot) in group.slots.iter().enumerate() {
                    if !group.batch.lane_is_finite(lane) {
                        failed(slot);
                    }
                }
            }
        }
    }

    /// Applies one admitted sync to stream `slot`'s lane — the same
    /// operations `apply_sync` runs on a filter — and returns whether it
    /// was accepted.
    pub(crate) fn apply(&mut self, slot: usize, msg: SyncRef<'_>) -> bool {
        let (group, lane) = self.lane_of[slot];
        let (g, lane) = (&mut self.groups[group as usize], lane as usize);
        match msg {
            SyncRef::State { x, p } => g.batch.set_lane_packed(lane, x.iter(), p.iter()).is_ok(),
            // On `Diverged` the lane keeps the non-finite posterior —
            // exactly what a lone filter leaves behind. Other errors
            // leave the lane untouched; either way the sync is not counted.
            SyncRef::Measurement { z } => g
                .batch
                .update_lane(lane, z.read_into(&mut [0.0; DIM_CAP]))
                .is_ok(),
            // The replacement filter may have any shape and form: it
            // rewrites the lane when it keeps the group's dynamics, else
            // moves the stream to a lane of its own dynamics' group. A
            // refused one leaves the lane as it was.
            SyncRef::Model(model) => {
                let Some(filter) = model_filter(model) else {
                    return false;
                };
                self.names[slot] = shared_name(&filter, Some(&self.names[slot]));
                if g.batch.runs(filter.model(), filter.covariance_update()) {
                    g.batch
                        .set_lane_filter(lane, &filter)
                        .expect("same dynamics, same shape");
                } else {
                    self.relocate(slot, &filter);
                }
                true
            }
        }
    }

    /// Moves stream `slot` to a new lane seeded from `filter`, in the
    /// group for its dynamics. The old group's last lane fills the gap; a
    /// group left empty is dropped, the last group taking its index.
    fn relocate(&mut self, slot: usize, filter: &KalmanFilter) {
        let (from, lane) = self.lane_of[slot];
        let g = &mut self.groups[from as usize];
        g.batch.swap_remove_lane(lane as usize);
        g.slots.swap_remove(lane as usize);
        if let Some(&moved) = g.slots.get(lane as usize) {
            self.lane_of[moved] = (from, lane);
        }
        self.lane_of[slot] = self.add(slot, filter);
        if self.groups[from as usize].slots.is_empty() {
            self.drop_group(from as usize);
        }
    }

    /// Drops the empty group `g`: the last group takes its index, and the
    /// lane map follows it.
    fn drop_group(&mut self, g: usize) {
        self.groups.swap_remove(g);
        if let Some(moved) = self.groups.get(g) {
            for (lane, &slot) in moved.slots.iter().enumerate() {
                self.lane_of[slot] = (g as u32, lane as u32);
            }
        }
    }

    /// Stream `slot`'s filter, assembled from its lane: the group's `F`,
    /// `H` and form with the lane's `Q`, `R`, name, state, covariance and
    /// staleness — bit for bit the filter the stream would have had on its
    /// own.
    pub(crate) fn filter(&self, slot: usize) -> KalmanFilter {
        let (group, lane) = self.lane_of[slot];
        let name = Arc::clone(&self.names[slot]);
        self.groups[group as usize]
            .batch
            .lane_filter(lane as usize, name)
    }
}

/// `filter`'s model name, sharing `near`'s allocation when the two are
/// equal: neighbouring streams nearly always run one model, and a resync
/// nearly always keeps the name, so neither allocates.
fn shared_name(filter: &KalmanFilter, near: Option<&Arc<str>>) -> Arc<str> {
    let name = filter.model().name();
    near.filter(|near| near.as_ref() == name)
        .map_or_else(|| name.into(), Arc::clone)
}

/// The name the batch engine had while a shard could run without it:
/// every ingester steps lanes now, so it is [`SequentialIngest`].
pub type BatchedIngest = SequentialIngest;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::FrameBatch;
    use crate::ingest::IngestResult;
    use crate::test_support::{
        acked_fleet, assert_same_endpoints, assert_same_states, oracle, poll_dry, record_log,
        record_log_of, Recording,
    };
    use crate::wire::{SyncMessage, WireMessage};
    use crate::ServerEndpoint;
    use kalstream_filter::{models, CovarianceUpdate, StateModel};
    use kalstream_linalg::{Matrix, Vector};

    /// The lanes a shard over `endpoints` starts with.
    fn lanes_of(endpoints: &[(u32, ServerEndpoint)]) -> BatchLanes {
        let mut lanes = BatchLanes::default();
        endpoints.iter().for_each(|(_, ep)| lanes.push(ep.filter()));
        lanes
    }

    /// Lane count of every group, in group order.
    fn group_sizes(lanes: &BatchLanes) -> Vec<usize> {
        lanes.groups.iter().map(|g| g.batch.len()).collect()
    }

    /// Replays `log` through one [`SequentialIngest`], handing `each` the
    /// tick index and the lanes after every tick (the lane map checked
    /// first), and holds the result to the [`oracle`].
    fn replay(
        servers: Vec<(u32, ServerEndpoint)>,
        log: &[Vec<u8>],
        mut each: impl FnMut(usize, &BatchLanes),
        what: &str,
    ) -> IngestResult {
        let want = oracle(servers.clone(), log);
        let mut ingest = SequentialIngest::new(servers);
        for (t, tick) in log.iter().enumerate() {
            ingest.ingest_tick(tick);
            assert_lane_map_holds(ingest.lanes());
            each(t, ingest.lanes());
        }
        let result = ingest.finish();
        assert_same_endpoints(&result.endpoints, &want, what);
        result
    }

    #[test]
    fn groups_streams_by_model_and_form_and_maps_every_endpoint() {
        let mut endpoints = Vec::new();
        // 3-state constant acceleration: off the shape table, one group on
        // the zero-padded 4 × 1 row.
        for id in 0..3u32 {
            let kf = KalmanFilter::new(
                models::constant_acceleration(1.0, 0.02, 0.1),
                Vector::zeros(3),
                1.0,
            )
            .unwrap();
            endpoints.push((id, ServerEndpoint::new(kf)));
        }
        // 2-state constant velocity: one shared group, whatever the noise.
        for id in 3..8u32 {
            let q = 0.05 * (1 + id % 2) as f64;
            let kf = KalmanFilter::new(
                models::constant_velocity(1.0, q, 0.1),
                Vector::zeros(2),
                1.0,
            )
            .unwrap();
            endpoints.push((id, ServerEndpoint::new(kf)));
        }
        // The same model in the Simple covariance form: a group of its own.
        let mut kf = KalmanFilter::new(
            models::constant_velocity(1.0, 0.05, 0.1),
            Vector::zeros(2),
            1.0,
        )
        .unwrap();
        kf.set_covariance_update(CovarianceUpdate::Simple);
        endpoints.push((8, ServerEndpoint::new(kf)));
        let lanes = lanes_of(&endpoints);
        assert_lane_map_holds(&lanes);
        assert_eq!(group_sizes(&lanes), vec![3, 5, 1]);
        assert!(matches!(lanes.groups[0].batch, DynFleetBatch::B4x1(_)));
        assert_eq!(
            lanes.groups[2].batch.covariance_update(),
            CovarianceUpdate::Simple
        );
    }

    #[test]
    fn default_scalar_fleet_is_one_group() {
        // The benchmark's own fleet: 1-state adaptive random walks.
        let (servers, _) = record_log(0, 16, 0);
        let lanes = lanes_of(&servers);
        assert_lane_map_holds(&lanes);
        assert_eq!(group_sizes(&lanes), vec![16]);
    }

    #[test]
    fn lanes_match_the_oracle_bit_for_bit() {
        // 12 CV (2×1) and 4 default scalar (1×1) sessions on exact rows, 4
        // constant-acceleration (3×1) sessions on the padded 4×1 row; 4 of
        // the CV servers update in the Simple form (a group of their own),
        // which the endpoints handed back must carry.
        let config = || crate::ProtocolConfig::new(0.25).unwrap();
        let specs = (0..20)
            .map(|id| match id {
                0..12 => crate::SessionSpec::fixed(
                    models::constant_velocity(1.0, 0.05, 0.1),
                    Vector::zeros(2),
                    1.0,
                    config(),
                ),
                12..16 => crate::SessionSpec::default_scalar(0.0, config()),
                _ => crate::SessionSpec::fixed(
                    models::constant_acceleration(1.0, 0.02, 0.1),
                    Vector::zeros(3),
                    1.0,
                    config(),
                ),
            })
            .collect::<crate::Result<Vec<_>>>()
            .unwrap();
        let (mut servers, log) = record_log_of(specs, 80);
        for (_, ep) in &mut servers[4..8] {
            ep.filter.set_covariance_update(CovarianceUpdate::Simple);
        }
        assert_eq!(group_sizes(&lanes_of(&servers)), vec![8, 4, 4, 4]);
        let result = replay(servers, &log, |_, _| {}, "lanes");
        assert!(result.total_messages() > 0, "log recorded no syncs");
        let form = |id: usize| result.endpoints[id].1.filter().covariance_update();
        assert_eq!(
            (form(4), form(8)),
            (CovarianceUpdate::Simple, CovarianceUpdate::Joseph)
        );
    }

    /// `tick`, with `extra`'s frames ahead of its own.
    fn prepend(tick: &mut Vec<u8>, extra: FrameBatch) {
        let mut merged = extra.as_bytes().to_vec();
        merged.extend_from_slice(tick);
        *tick = merged;
    }

    #[test]
    fn model_sync_moves_the_stream_to_its_new_models_group_and_back() {
        // Stream 1 receives a model sync mid-run — trailed by a measurement
        // in the same tick that must land on its new lane — then keeps
        // receiving ordinary traffic, until a second model sync puts it
        // back on its first dynamics (with a noise of its own): the emptied
        // group is dropped.
        let (servers, mut log) = record_log(4, 0, 40);
        let mut to_ca = FrameBatch::new();
        to_ca.push(
            1,
            &SyncMessage::Model {
                model: Box::new(models::constant_acceleration(1.0, 0.02, 0.1)),
                x: Vector::from_slice(&[0.5, 0.1, 0.0]),
                p: Matrix::scalar(3, 1.0),
            },
        );
        to_ca.push(
            1,
            &SyncMessage::Measurement {
                z: Vector::from_slice(&[0.6]),
            },
        );
        prepend(&mut log[20], to_ca);
        let mut back = FrameBatch::new();
        back.push(
            1,
            &SyncMessage::Model {
                model: Box::new(models::constant_velocity(1.0, 0.08, 0.3)),
                x: Vector::from_slice(&[0.4, 0.1]),
                p: Matrix::scalar(2, 0.5),
            },
        );
        prepend(&mut log[30], back);

        assert_eq!(group_sizes(&lanes_of(&servers)), vec![4]);
        let result = replay(
            servers,
            &log,
            |t, lanes| match t {
                20 => assert_eq!(group_sizes(lanes), vec![3, 1], "stream 1 moved"),
                30 => assert_eq!(group_sizes(lanes), vec![4], "and back"),
                _ => {}
            },
            "model-sync",
        );
        let (_, ep1) = &result.endpoints[1];
        assert_eq!(ep1.filter().model().name(), "constant_velocity");
    }

    /// Every endpoint is mapped: `lane_of` is exactly the inverse of the
    /// groups' `slots`, which hold every endpoint once, no group is empty,
    /// each group's batch has one lane per slot, and no two groups run the
    /// same dynamics.
    fn assert_lane_map_holds(lanes: &BatchLanes) {
        let mut mapped = 0;
        for (g, group) in lanes.groups.iter().enumerate() {
            assert!(!group.slots.is_empty(), "group {g} is empty");
            assert_eq!(group.batch.len(), group.slots.len());
            let (model, form) = (group.batch.model(), group.batch.covariance_update());
            assert_eq!(
                lanes.groups.iter().position(|g| g.batch.runs(model, form)),
                Some(g),
                "group {g}'s dynamics run on no earlier group"
            );
            for (lane, &slot) in group.slots.iter().enumerate() {
                assert_eq!(lanes.lane_of[slot], (g as u32, lane as u32));
                mapped += 1;
            }
        }
        assert_eq!(mapped, lanes.lane_of.len(), "every endpoint mapped");
        assert_eq!(lanes.names.len(), mapped, "every endpoint named");
    }

    #[test]
    fn model_sync_mid_walk_moves_at_once_and_both_moved_lanes_keep_their_frames() {
        // Four CV streams batch as lanes 0..4 of one group. In one tick
        // stream 1 gets State → Measurement → Model → State: the Model
        // installs a replacement filter and moves the stream mid-walk to a
        // new constant-acceleration group, stream 3's lane is swapped into
        // lane 1, and stream 3 has frames later in that tick, as does
        // stream 1 (on its new lane).
        let (servers, mut log) = record_log(4, 0, 30);
        let state = |a: f64, b: f64| SyncMessage::State {
            x: Vector::from_slice(&[a, b]),
            p: Matrix::from_rows(&[&[0.5, 0.125], &[0.125, 0.75]]),
        };
        let measurement = |v: f64| SyncMessage::Measurement {
            z: Vector::from_slice(&[v]),
        };
        let mut extra = FrameBatch::new();
        extra.push(1, &state(0.5, 0.1));
        extra.push(1, &measurement(0.6));
        extra.push(
            1,
            &SyncMessage::Model {
                model: Box::new(models::constant_acceleration(1.0, 0.02, 0.1)),
                x: Vector::from_slice(&[0.5, 0.1, 0.0]),
                p: Matrix::scalar(3, 1.0),
            },
        );
        extra.push(3, &measurement(-0.2));
        extra.push(
            1,
            &SyncMessage::State {
                x: Vector::from_slice(&[0.55, 0.1, 0.01]),
                p: Matrix::scalar(3, 0.5),
            },
        );
        extra.push(3, &state(-0.3, 0.05));
        extra.push(3, &measurement(-0.25));
        let move_at = 10;
        prepend(&mut log[move_at], extra);

        let result = replay(
            servers,
            &log,
            |t, lanes| {
                if t == move_at {
                    assert_eq!(lanes.lane_of[1], (1, 0), "stream 1 moved groups");
                    assert_eq!(lanes.lane_of[3], (0, 1), "stream 3 moved lanes");
                    assert_eq!(lanes.groups[0].slots, vec![0, 3, 2]);
                    assert!(matches!(lanes.groups[1].batch, DynFleetBatch::B4x1(_)));
                }
            },
            "mid-walk move",
        );
        let (_, ep1) = &result.endpoints[1];
        assert_eq!(ep1.filter().model().name(), "constant_acceleration");
    }

    /// A Model sync for a constant-velocity stream that keeps its `F`, `H`
    /// and form but names the model `name` and brings its own `Q` and `R`.
    fn renamed_cv(name: &str, q: f64, r: f64) -> SyncMessage {
        let cv = models::constant_velocity(1.0, 0.05, 0.1);
        let model = StateModel::new(
            name,
            cv.f().clone(),
            Matrix::from_rows(&[&[q, q * 0.5], &[q * 0.5, q]]),
            cv.h().clone(),
            Matrix::scalar(1, r),
        )
        .unwrap();
        SyncMessage::Model {
            model: Box::new(model),
            x: Vector::from_slice(&[0.1, 0.2]),
            p: Matrix::scalar(2, 0.6),
        }
    }

    #[test]
    fn model_sync_keeping_the_dynamics_rewrites_the_lane_in_place() {
        // Stream 2 gets a Model sync with its own F and H but new Q and R —
        // an adaptive source's resync — then measurements that run with the
        // new noise; stream 3 gets one that also renames its model. Their
        // lanes stay where they are, in the one group, and each endpoint
        // handed back carries its own name and noise.
        let (servers, mut log) = record_log(4, 0, 30);
        let mut resync = FrameBatch::new();
        resync.push(
            2,
            &SyncMessage::Model {
                model: Box::new(models::constant_velocity(1.0, 0.11, 0.37)),
                x: Vector::from_slice(&[0.2, -0.1]),
                p: Matrix::scalar(2, 0.75),
            },
        );
        resync.push(
            2,
            &SyncMessage::Measurement {
                z: Vector::from_slice(&[0.3]),
            },
        );
        prepend(&mut log[12], resync);
        let mut renamed = FrameBatch::new();
        renamed.push(3, &renamed_cv("cv_refit", 0.07, 0.23));
        prepend(&mut log[15], renamed);
        let start = lanes_of(&servers).lane_of;
        let result = replay(
            servers,
            &log,
            |_, lanes| {
                assert_eq!(group_sizes(lanes), vec![4]);
                assert_eq!(lanes.lane_of, start, "no lane moved");
            },
            "in-place resync",
        );
        let q = result.endpoints[2].1.filter().model().q().get(0, 0);
        assert_ne!(q, result.endpoints[0].1.filter().model().q().get(0, 0));
        let model = result.endpoints[3].1.filter().model();
        assert_eq!(model.name(), "cv_refit");
        assert_eq!(
            model.q(),
            &Matrix::from_rows(&[&[0.07, 0.035], &[0.035, 0.07]])
        );
        assert_eq!(model.r(), &Matrix::scalar(1, 0.23));
        assert_eq!(
            result.endpoints[0].1.filter().model().name(),
            "constant_velocity"
        );
    }

    #[test]
    fn a_mid_run_snapshot_after_model_syncs_is_the_oracles_state_and_resumes_it() {
        // Stream 1 moves to a constant-acceleration group at tick 5 and
        // stream 2 is resynced in place under a new name at tick 8; both
        // engines are snapshotted at tick 12, with both in effect. The
        // snapshot is the oracle's state at that tick, and endpoints
        // rebuilt from it finish the log as the oracle does.
        let (servers, mut log) = record_log(4, 0, 24);
        let mut to_ca = FrameBatch::new();
        to_ca.push(
            1,
            &SyncMessage::Model {
                model: Box::new(models::constant_acceleration(1.0, 0.02, 0.1)),
                x: Vector::from_slice(&[0.5, 0.1, 0.0]),
                p: Matrix::scalar(3, 1.0),
            },
        );
        prepend(&mut log[5], to_ca);
        let mut renamed = FrameBatch::new();
        renamed.push(2, &renamed_cv("cv_refit", 0.09, 0.3));
        prepend(&mut log[8], renamed);
        let (head, tail) = log.split_at(12);
        let want_mid = oracle(servers.clone(), head);
        let want_end = oracle(servers.clone(), &log);
        let want_states: Vec<_> = want_mid.iter().map(|(id, ep)| (*id, ep.state())).collect();

        let mut sequential = SequentialIngest::new(servers.clone());
        let mut pipeline = crate::IngestPipeline::start(2, servers);
        for tick in head {
            sequential.ingest_tick(tick);
            pipeline.ingest_tick(tick);
        }
        assert_eq!(group_sizes(sequential.lanes()), vec![3, 1]);
        let snapshots = [
            ("sequential", sequential.snapshot_states()),
            ("pipeline", pipeline.snapshot_states()),
        ];
        pipeline.finish();
        for (engine, snapshot) in snapshots {
            assert_same_states(&snapshot, &want_states, engine);
            assert_eq!(snapshot[2].1.model.name(), "cv_refit");
            let restored = snapshot
                .into_iter()
                .map(|(id, state)| (id, ServerEndpoint::from_state(state).unwrap()))
                .collect();
            let mut resumed = SequentialIngest::new(restored);
            for tick in tail {
                resumed.ingest_tick(tick);
            }
            let what = format!("resumed from the {engine} snapshot");
            assert_same_endpoints(&resumed.finish().endpoints, &want_end, &what);
        }
    }

    #[test]
    fn lossy_acked_adaptive_fleet_stays_in_one_group_without_a_move() {
        // 48 adaptive default-scalar sources with acks, 10 % loss both
        // ways and `ack_timeout = 6`: every timeout resync is a Model sync
        // carrying the source's own adapted noise. Recorded through a
        // feedback pipeline, then replayed: the lanes end in one group,
        // no stream ever leaves its lane, and the bits are the oracle's.
        use kalstream_sim::{run_fleet_ingest, LinkFaults};
        let (streams, ticks) = (48u32, 300u64);
        let (mut sources, servers) = acked_fleet(streams);
        let (tx, rx) = crossbeam::channel::unbounded();
        let pipeline = crate::IngestPipeline::start_with(2, servers.clone(), Some(tx));
        let recording = Recording {
            inner: pipeline,
            log: Vec::new(),
        };
        let mut sink = crate::FramingSink::with_feedback(recording, rx);
        let faults = LinkFaults {
            loss: 0.1,
            seed: 31,
            ..LinkFaults::default()
        };
        let report = run_fleet_ingest(&mut sources, ticks, 0, faults, &mut sink);
        let Recording { inner, log } = sink.into_inner();
        let live = inner.finish();
        assert!(report.faults.dropped > 0, "no message lost");

        let mut model_syncs = 0;
        for tick in &log {
            crate::FrameDecoder::new().for_each_wire_message(tick, |_, msg| {
                if let crate::wire::WireRef::Sync {
                    msg: SyncRef::Model(_),
                    ..
                } = msg
                {
                    model_syncs += 1;
                }
            });
        }
        assert!(
            model_syncs > streams,
            "only {model_syncs} Model syncs: no timeout resyncs"
        );

        let start = lanes_of(&servers).lane_of;
        let mut replayed = replay(
            servers,
            &log,
            |_, lanes| {
                assert_eq!(group_sizes(lanes), vec![streams as usize], "one group");
                assert_eq!(lanes.lane_of, start, "no lane moved");
            },
            "lossy adaptive replay",
        );
        // The live pipeline polled every ack; the replay had no channel.
        poll_dry(&mut replayed.endpoints);
        assert_same_endpoints(&live.endpoints, &replayed.endpoints, "live pipeline");
    }

    #[test]
    fn state_sync_heals_a_diverged_lane_in_the_same_tick() {
        // Poison a lane with a non-finite state sync — which set_lane
        // accepts (like set_state, it validates shape only) — and heal it
        // with a later sync *in the same tick*, exactly as a lone filter
        // would simply absorb both syncs.
        let (servers, _) = record_log(2, 0, 0);
        let poison = SyncMessage::State {
            x: Vector::from_slice(&[f64::NAN, 0.0]),
            p: Matrix::scalar(2, 1.0),
        };
        let heal = SyncMessage::State {
            x: Vector::from_slice(&[1.0, -0.5]),
            p: Matrix::scalar(2, 0.5),
        };
        let mut tick1 = FrameBatch::new();
        tick1.push(0, &poison);
        tick1.push(0, &heal);
        let quiet = FrameBatch::new().as_bytes().to_vec();
        let log = [tick1.as_bytes().to_vec(), quiet.clone(), quiet];
        let result = replay(servers, &log, |_, _| {}, "heal");
        let (_, ep) = &result.endpoints[0];
        assert_eq!(ep.predict_failures(), 0);
        assert!(ep.filter().state().iter().all(|v| v.is_finite()));
    }

    #[test]
    fn unhealed_diverged_lane_stays_on_its_lane_and_keeps_scalar_bookkeeping() {
        let (servers, _) = record_log(2, 0, 0);
        let poison = SyncMessage::State {
            x: Vector::from_slice(&[f64::NAN, 0.0]),
            p: Matrix::scalar(2, 1.0),
        };
        let mut tick1 = FrameBatch::new();
        tick1.push(0, &poison);
        let quiet = FrameBatch::new().as_bytes().to_vec();
        let log = [
            tick1.as_bytes().to_vec(),
            quiet.clone(),
            quiet.clone(),
            quiet,
        ];
        let result = replay(servers, &log, |_, _| {}, "diverged");
        // The poison sync lands *after* tick 1's predict, so only the three
        // quiet ticks predict on a non-finite state, and each counts.
        let (_, ep) = &result.endpoints[0];
        assert_eq!(ep.predict_failures(), 3, "every later tick keeps failing");
    }

    #[test]
    fn state_sync_heals_a_poisoned_padded_lane_two_ticks_later() {
        // Two constant-acceleration (3 × 1) streams share a lane group on
        // the zero-padded 4 × 1 row. Stream 0's lane is poisoned (NaN in
        // `x` and `P`), predicts twice on it, and is then healed by a state
        // sync; measurement syncs follow on both streams. A pad stored on
        // the lane would have picked up NaN by then and would leak it back
        // into the healed real block on the next predict.
        let config = || crate::ProtocolConfig::new(0.25).unwrap();
        let specs = (0..2)
            .map(|_| {
                crate::SessionSpec::fixed(
                    models::constant_acceleration(1.0, 0.02, 0.1),
                    Vector::zeros(3),
                    1.0,
                    config(),
                )
            })
            .collect::<crate::Result<Vec<_>>>()
            .unwrap();
        let (servers, _) = record_log_of(specs, 0);
        let mut poisoned_p = Matrix::scalar(3, 1.0);
        poisoned_p.set(0, 1, f64::NAN);
        poisoned_p.set(1, 0, f64::NAN);
        let poison = SyncMessage::State {
            x: Vector::from_slice(&[f64::NAN, 0.0, 0.0]),
            p: poisoned_p,
        };
        let heal = SyncMessage::State {
            x: Vector::from_slice(&[1.0, -0.5, 0.1]),
            p: Matrix::scalar(3, 0.5),
        };
        let measurement = |v: f64| SyncMessage::Measurement {
            z: Vector::from_slice(&[v]),
        };
        assert!(matches!(
            lanes_of(&servers).groups[0].batch,
            DynFleetBatch::B4x1(_)
        ));
        let log: Vec<Vec<u8>> = (0..8)
            .map(|t| {
                let mut tick = FrameBatch::new();
                match t {
                    0 => tick.push(0, &poison),
                    2 => tick.push(0, &heal),
                    _ => {}
                }
                if t >= 3 {
                    tick.push(0, &measurement(0.2 * t as f64));
                }
                tick.push(1, &measurement(-0.1 * t as f64));
                tick.as_bytes().to_vec()
            })
            .collect();
        let result = replay(servers, &log, |_, _| {}, "padded heal");
        let (_, ep) = &result.endpoints[0];
        assert_eq!(ep.predict_failures(), 2, "ticks 1 and 2 predict on NaN");
        assert!(ep.filter().state().iter().all(|v| v.is_finite()));
        assert!(ep.filter().covariance().is_finite());
    }

    #[test]
    fn unknown_streams_are_counted_on_the_batch_path() {
        let (servers, _) = record_log(1, 1, 0);
        let measurement = SyncMessage::Measurement {
            z: Vector::from_slice(&[1.0]),
        };
        let mut batch = FrameBatch::new();
        batch.push(0, &measurement);
        batch.push(99, &measurement); // no such stream
        let result = replay(servers, &[batch.as_bytes().to_vec()], |_, _| {}, "unknown");
        let report = &result.shards[0];
        assert_eq!(report.messages, 1);
        assert_eq!(report.unknown_streams, 1);
    }

    #[test]
    fn sequenced_duplicates_are_deduplicated_on_the_batch_path() {
        // The endpoint's seq bookkeeping must keep working in front of the
        // lane: duplicates and stale re-deliveries never reach the batch.
        let (servers, _) = record_log(2, 0, 0);
        let state = |v: f64| SyncMessage::State {
            x: Vector::from_slice(&[v, 0.0]),
            p: Matrix::scalar(2, 0.5),
        };
        let mut batch = FrameBatch::new();
        for (seq, v) in [(1, 1.0), (2, 2.0), (2, 9.0), (1, 9.0)] {
            batch.push_raw(
                0,
                &WireMessage::Sync {
                    seq: Some(seq),
                    msg: state(v),
                }
                .encode(),
            );
        }
        let result = replay(servers, &[batch.as_bytes().to_vec()], |_, _| {}, "dedup");
        let (_, ep) = &result.endpoints[0];
        assert_eq!(ep.delivery().stale_drops, 2);
        assert_eq!(ep.last_seq(), 2);
        assert_eq!(ep.filter().state()[0], 2.0, "stale 9.0 never applied");
    }
}
