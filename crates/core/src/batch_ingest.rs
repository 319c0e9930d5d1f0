//! Batch-dispatched ingest: a shard's streams stepped as structure-of-arrays
//! lanes, grouped by model and covariance form.
//!
//! The plain ingest path advances every [`ServerEndpoint`]'s filter one at a
//! time — correct, but at fleet scale the per-stream predict dominates the
//! tick. [`BatchLanes`] puts **every** endpoint's filter on a
//! [`DynFleetBatch`] lane, in the group of the filters running the same
//! model in the same covariance form, and advances whole groups with one
//! `predict_all` per tick. Every shape a filter admits has a batch row,
//! exact or zero-padded ([`DynFleetBatch::for_model_in_form`]), so no
//! stream is stepped any other way. Sequence bookkeeping, counters and
//! feedback keep running through the [`ServerEndpoint`]; only the filter
//! arithmetic moves.
//!
//! ## Equivalence
//!
//! A lane runs a lone filter's kernel in the same floating-point order
//! (see `kalstream_filter::FleetBatch`), and [`BatchLanes::apply`] applies
//! each admitted sync to it through the operations `apply_sync` runs on a
//! filter, in the same per-stream order. A batched run therefore produces
//! **bit-identical endpoints** to the plain path — the invariant this
//! module's tests and the workspace proptests pin down, including:
//!
//! * a **model sync**, which installs the replacement filter in the
//!   endpoint and *moves* the stream to a lane, seeded from that filter,
//!   of the group for its new model and form (created on demand; a group
//!   left empty is dropped). The tick's later syncs land on the new lane;
//!   the old group's last lane fills the gap, and the endpoint → lane map
//!   follows it;
//! * a **non-finite** lane, which stays where it is: its predict failures
//!   are counted per tick and a later state sync heals it in place, as for
//!   a lone filter.

use kalstream_filter::{DynFleetBatch, KalmanFilter};
use kalstream_linalg::DIM_CAP;

use crate::ingest::{IngestResult, Shard, TickIngest};
use crate::server::{EndpointState, ServerEndpoint};
use crate::wire::SyncRef;

/// One lane group: the streams whose filters share a model and a
/// covariance form.
struct BatchGroup {
    batch: DynFleetBatch,
    /// `slots[lane]` is the position (in the shard's endpoint slice) of the
    /// endpoint owning that lane.
    slots: Vec<usize>,
}

/// The fleet-batch lanes in front of one shard's endpoints. Endpoints are
/// addressed by their position in the shard's id-sorted slice, which every
/// method takes by reference — the shard owns the endpoints, the lanes
/// carry their filter arithmetic.
pub(crate) struct BatchLanes {
    groups: Vec<BatchGroup>,
    /// `lane_of[slot]` is the `(group, lane)` carrying endpoint `slot`'s
    /// filter — the inverse of the groups' `slots`, kept in step across
    /// every move.
    lane_of: Vec<(u32, u32)>,
}

impl BatchLanes {
    /// Puts every endpoint's filter on a lane of its model and form's group.
    pub(crate) fn new(endpoints: &[(u32, ServerEndpoint)]) -> Self {
        let mut lanes = BatchLanes {
            groups: Vec::new(),
            lane_of: Vec::with_capacity(endpoints.len()),
        };
        for (slot, (_, ep)) in endpoints.iter().enumerate() {
            let at = lanes.push(slot, ep.filter());
            lanes.lane_of.push(at);
        }
        lanes
    }

    /// Appends a lane for endpoint `slot`, seeded from `filter`, to the
    /// group for `filter`'s model and form (created when there is none);
    /// returns its `(group, lane)`.
    fn push(&mut self, slot: usize, filter: &KalmanFilter) -> (u32, u32) {
        let (model, form) = (filter.model(), filter.covariance_update());
        let group = match self
            .groups
            .iter()
            .position(|g| g.batch.covariance_update() == form && g.batch.model() == model)
        {
            Some(g) => g,
            None => {
                let batch = DynFleetBatch::for_model_in_form(model, form)
                    .expect("every admitted filter shape has a batch row");
                self.groups.push(BatchGroup {
                    batch,
                    slots: Vec::new(),
                });
                self.groups.len() - 1
            }
        };
        let g = &mut self.groups[group];
        let lane = g
            .batch
            .push(
                filter.state(),
                filter.covariance(),
                filter.steps_since_update(),
            )
            .expect("endpoint filter shape matches its own model");
        g.slots.push(slot);
        (group as u32, lane as u32)
    }

    /// The predict phase of a tick — the batch twin of calling
    /// `ServerEndpoint::predict` on each endpoint: every group predicts as
    /// one fleet, and each lane that comes out non-finite gets the plain
    /// path's per-tick `predict_failures` bookkeeping.
    pub(crate) fn predict(&mut self, endpoints: &mut [(u32, ServerEndpoint)]) {
        for group in self.groups.iter_mut() {
            if group.batch.predict_all() > 0 {
                for (lane, &slot) in group.slots.iter().enumerate() {
                    if !group.batch.lane_is_finite(lane) {
                        endpoints[slot].1.note_predict_failure();
                    }
                }
            }
        }
    }

    /// Applies one admitted sync for endpoint `slot` (`ep`) to its lane —
    /// the same operations `apply_sync` runs on a filter.
    pub(crate) fn apply(&mut self, slot: usize, ep: &mut ServerEndpoint, msg: SyncRef<'_>) {
        let (group, lane) = self.lane_of[slot];
        let (batch, lane) = (&mut self.groups[group as usize].batch, lane as usize);
        let applied = match msg {
            SyncRef::State { x, p } => batch.set_lane_packed(lane, x.iter(), p.iter()).is_ok(),
            // On `Diverged` the lane keeps the non-finite posterior —
            // exactly what a lone filter leaves behind. Other errors
            // leave the lane untouched; either way the sync is not counted.
            SyncRef::Measurement { z } => batch
                .update_lane(lane, z.read_into(&mut [0.0; DIM_CAP]))
                .is_ok(),
            // The replacement filter may have any shape and form: it is
            // installed in the endpoint, and the stream moves to a lane of
            // its group. On rejection the stream keeps its lane.
            SyncRef::Model(_) => {
                if ep.apply_view(msg) {
                    self.relocate(slot, ep.filter());
                }
                return;
            }
        };
        if applied {
            ep.note_sync_applied();
        }
    }

    /// Moves endpoint `slot` to a new lane seeded from `filter`, in the
    /// group for its model and form. The old group's last lane fills the
    /// gap; a group left empty is dropped, the last group taking its index.
    fn relocate(&mut self, slot: usize, filter: &KalmanFilter) {
        let (from, lane) = self.lane_of[slot];
        let g = &mut self.groups[from as usize];
        g.batch.swap_remove_lane(lane as usize);
        g.slots.swap_remove(lane as usize);
        if let Some(&moved) = g.slots.get(lane as usize) {
            self.lane_of[moved] = (from, lane);
        }
        self.lane_of[slot] = self.push(slot, filter);
        let from = from as usize;
        if self.groups[from].slots.is_empty() {
            self.groups.swap_remove(from);
            if let Some(g) = self.groups.get(from) {
                for (lane, &moved) in g.slots.iter().enumerate() {
                    self.lane_of[moved] = (from as u32, lane as u32);
                }
            }
        }
    }

    /// Overlays every lane's `x`/`p`/staleness onto `states` (one per
    /// endpoint, in endpoint order) — the endpoint's own filter is dormant,
    /// so its captured triplet is stale until overlaid.
    pub(crate) fn overlay(&self, states: &mut [(u32, EndpointState)]) {
        for group in self.groups.iter() {
            for (lane, &slot) in group.slots.iter().enumerate() {
                let state = &mut states[slot].1;
                (state.x, state.p, state.steps_since_update) = group.batch.lane_state(lane);
            }
        }
    }

    /// Hands every lane's state back to its endpoint filter, so the
    /// endpoints hold the same shape (and, for the same traffic, the same
    /// bits) the plain path produces.
    pub(crate) fn restore(&self, endpoints: &mut [(u32, ServerEndpoint)]) {
        for group in self.groups.iter() {
            for (lane, &slot) in group.slots.iter().enumerate() {
                let (x, p, steps) = group.batch.lane_state(lane);
                endpoints[slot]
                    .1
                    .filter_mut()
                    .restore(x, p, steps)
                    .expect("lane shape matches its endpoint's model");
            }
        }
    }
}

/// Single-threaded ingester over one batched inline `Shard` — the batch
/// twin of [`crate::SequentialIngest`], stepping exactly what a batched
/// [`crate::IngestPipeline`]'s workers step. Same tick semantics, same
/// [`IngestResult`] shape (one pseudo-shard).
pub struct BatchedIngest(Shard);

impl BatchedIngest {
    /// Builds the ingester over `endpoints`, every one on a lane.
    pub fn new(endpoints: Vec<(u32, ServerEndpoint)>) -> Self {
        BatchedIngest(Shard::new(0, endpoints, true, None))
    }

    /// Drains one tick's batch and advances every endpoint, synchronously.
    pub fn ingest_tick(&mut self, wire: &[u8]) {
        self.0.tick(wire, |_| true);
    }

    /// Collects the run into the same shape as the sharded pipeline (one
    /// pseudo-shard), restoring every lane into its endpoint filter.
    pub fn finish(self) -> IngestResult {
        self.0.finish(None)
    }
}

impl TickIngest for BatchedIngest {
    fn ingest_tick(&mut self, wire: &[u8]) {
        BatchedIngest::ingest_tick(self, wire);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::FrameBatch;
    use crate::ingest::SequentialIngest;
    use crate::test_support::{filter_bits, record_log, record_log_of};
    use crate::wire::{SyncMessage, WireMessage};
    use kalstream_filter::{models, CovarianceUpdate};
    use kalstream_linalg::{Matrix, Vector};

    fn assert_same_endpoints(a: &[(u32, ServerEndpoint)], b: &[(u32, ServerEndpoint)], what: &str) {
        assert_eq!(a.len(), b.len());
        for ((id_a, ea), (id_b, eb)) in a.iter().zip(b.iter()) {
            assert_eq!(id_a, id_b);
            assert_eq!(filter_bits(ea), filter_bits(eb), "{what}: stream {id_a}");
            assert_eq!(ea.syncs_applied(), eb.syncs_applied(), "{what}: {id_a}");
            assert_eq!(
                ea.predict_failures(),
                eb.predict_failures(),
                "{what}: {id_a}"
            );
            assert_eq!(
                ea.filter().steps_since_update(),
                eb.filter().steps_since_update(),
                "{what}: {id_a}"
            );
        }
    }

    /// Lane count of every group, in group order.
    fn group_sizes(lanes: &BatchLanes) -> Vec<usize> {
        lanes.groups.iter().map(|g| g.batch.len()).collect()
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
        // 2-state constant velocity: one shared group.
        for id in 3..8u32 {
            let kf = KalmanFilter::new(
                models::constant_velocity(1.0, 0.05, 0.1),
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
        let lanes = BatchLanes::new(&endpoints);
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
        let lanes = BatchLanes::new(&servers);
        assert_lane_map_holds(&lanes);
        assert_eq!(group_sizes(&lanes), vec![16]);
    }

    #[test]
    fn batched_ingest_matches_sequential_bit_for_bit() {
        // 12 CV (2×1) and 4 default scalar (1×1) sessions on exact rows, 4
        // constant-acceleration (3×1) sessions on the padded 4×1 row.
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
        let (servers, log) = record_log_of(specs, 80);
        let mut seq = SequentialIngest::new(servers.clone());
        for tick in &log {
            seq.ingest_tick(tick);
        }
        let seq_result = seq.finish();
        assert!(seq_result.total_messages() > 0, "log recorded no syncs");

        let mut batched = BatchedIngest::new(servers);
        assert_eq!(group_sizes(lanes_of(&batched)), vec![12, 4, 4]);
        for tick in &log {
            TickIngest::ingest_tick(&mut batched, tick);
        }
        let result = batched.finish();
        assert_eq!(result.total_messages(), seq_result.total_messages());
        assert_same_endpoints(&result.endpoints, &seq_result.endpoints, "batched");
    }

    /// The lanes of a batched ingester.
    fn lanes_of(batched: &BatchedIngest) -> &BatchLanes {
        batched.0.lanes().expect("a batched shard has lanes")
    }

    #[test]
    fn model_sync_moves_the_stream_to_its_new_models_group_and_back() {
        // Stream 1 receives a model sync mid-run — trailed by a measurement
        // in the same tick that must land on its new lane — then keeps
        // receiving ordinary traffic, until a second model sync puts it
        // back on its first model: the emptied group is dropped.
        let (servers, mut log) = record_log(4, 0, 40);
        let prepend = |tick: &mut Vec<u8>, extra: FrameBatch| {
            let mut merged = extra.as_bytes().to_vec();
            merged.extend_from_slice(tick);
            *tick = merged;
        };
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
                model: Box::new(models::constant_velocity(1.0, 0.05, 0.1)),
                x: Vector::from_slice(&[0.4, 0.1]),
                p: Matrix::scalar(2, 0.5),
            },
        );
        prepend(&mut log[30], back);

        let mut seq = SequentialIngest::new(servers.clone());
        let mut batched = BatchedIngest::new(servers);
        assert_eq!(group_sizes(lanes_of(&batched)), vec![4]);
        for (t, tick) in log.iter().enumerate() {
            seq.ingest_tick(tick);
            batched.ingest_tick(tick);
            let lanes = lanes_of(&batched);
            assert_lane_map_holds(lanes);
            match t {
                20 => assert_eq!(group_sizes(lanes), vec![3, 1], "stream 1 moved"),
                30 => assert_eq!(group_sizes(lanes), vec![4], "and back"),
                _ => {}
            }
        }
        let seq_result = seq.finish();
        let result = batched.finish();
        assert_same_endpoints(&result.endpoints, &seq_result.endpoints, "model-sync");
        let (_, ep1) = &result.endpoints[1];
        assert_eq!(ep1.filter().model().name(), "constant_velocity");
    }

    /// Every endpoint is mapped: `lane_of` is exactly the inverse of the
    /// groups' `slots`, which hold every endpoint once, no group is empty,
    /// and each group's batch has one lane per slot.
    fn assert_lane_map_holds(lanes: &BatchLanes) {
        let mut mapped = 0;
        for (g, group) in lanes.groups.iter().enumerate() {
            assert!(!group.slots.is_empty(), "group {g} is empty");
            assert_eq!(group.batch.len(), group.slots.len());
            for (lane, &slot) in group.slots.iter().enumerate() {
                assert_eq!(lanes.lane_of[slot], (g as u32, lane as u32));
                mapped += 1;
            }
        }
        assert_eq!(mapped, lanes.lane_of.len(), "every endpoint mapped");
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
        let mut merged = extra.as_bytes().to_vec();
        merged.extend_from_slice(&log[move_at]);
        log[move_at] = merged;

        let mut seq = SequentialIngest::new(servers.clone());
        let mut batched = BatchedIngest::new(servers);
        for (t, tick) in log.iter().enumerate() {
            seq.ingest_tick(tick);
            batched.ingest_tick(tick);
            let lanes = lanes_of(&batched);
            assert_lane_map_holds(lanes);
            if t == move_at {
                assert_eq!(lanes.lane_of[1], (1, 0), "stream 1 moved groups");
                assert_eq!(lanes.lane_of[3], (0, 1), "stream 3 moved lanes");
                assert_eq!(lanes.groups[0].slots, vec![0, 3, 2]);
                assert!(matches!(lanes.groups[1].batch, DynFleetBatch::B4x1(_)));
            }
        }
        let a = seq.finish();
        let b = batched.finish();
        assert_same_endpoints(&b.endpoints, &a.endpoints, "mid-walk move");
        let (_, ep1) = &b.endpoints[1];
        assert_eq!(ep1.filter().model().name(), "constant_acceleration");
    }

    #[test]
    fn state_sync_heals_a_diverged_lane_in_the_same_tick() {
        // Poison a lane with a non-finite state sync — which set_lane
        // accepts (like set_state, it validates shape only) — and heal it
        // with a later sync *in the same tick*, exactly as the scalar
        // filter would simply absorb both syncs.
        let (servers, _) = record_log(2, 0, 0);
        let poison = SyncMessage::State {
            x: Vector::from_slice(&[f64::NAN, 0.0]),
            p: Matrix::scalar(2, 1.0),
        };
        let heal = SyncMessage::State {
            x: Vector::from_slice(&[1.0, -0.5]),
            p: Matrix::scalar(2, 0.5),
        };
        let mut seq = SequentialIngest::new(servers.clone());
        let mut batched = BatchedIngest::new(servers);
        let mut tick1 = FrameBatch::new();
        tick1.push(0, &poison);
        tick1.push(0, &heal);
        let quiet = FrameBatch::new();
        for tick in [tick1.as_bytes(), quiet.as_bytes(), quiet.as_bytes()] {
            seq.ingest_tick(tick);
            batched.ingest_tick(tick);
        }
        let a = seq.finish();
        let b = batched.finish();
        assert_same_endpoints(&b.endpoints, &a.endpoints, "heal");
        let (_, ep) = &b.endpoints[0];
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
        let mut seq = SequentialIngest::new(servers.clone());
        let mut batched = BatchedIngest::new(servers);
        let mut tick1 = FrameBatch::new();
        tick1.push(0, &poison);
        let quiet = FrameBatch::new();
        seq.ingest_tick(tick1.as_bytes());
        batched.ingest_tick(tick1.as_bytes());
        for _ in 0..3 {
            seq.ingest_tick(quiet.as_bytes());
            batched.ingest_tick(quiet.as_bytes());
        }
        let a = seq.finish();
        let b = batched.finish();
        assert_same_endpoints(&b.endpoints, &a.endpoints, "diverged");
        // The poison sync lands *after* tick 1's predict, so only the three
        // quiet ticks predict on a non-finite state, and each counts.
        let (_, ep) = &b.endpoints[0];
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
        let mut seq = SequentialIngest::new(servers.clone());
        let mut batched = BatchedIngest::new(servers);
        assert!(matches!(
            lanes_of(&batched).groups[0].batch,
            DynFleetBatch::B4x1(_)
        ));
        for t in 0..8 {
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
            seq.ingest_tick(tick.as_bytes());
            batched.ingest_tick(tick.as_bytes());
            assert_lane_map_holds(lanes_of(&batched));
        }
        let a = seq.finish();
        let b = batched.finish();
        assert_same_endpoints(&b.endpoints, &a.endpoints, "padded heal");
        let (_, ep) = &b.endpoints[0];
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
        let mut batched = BatchedIngest::new(servers);
        batched.ingest_tick(batch.as_bytes());
        let report = &batched.finish().shards[0];
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
        let mut seq_ref = SequentialIngest::new(servers.clone());
        let mut batched = BatchedIngest::new(servers);
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
        seq_ref.ingest_tick(batch.as_bytes());
        batched.ingest_tick(batch.as_bytes());
        let a = seq_ref.finish();
        let b = batched.finish();
        assert_same_endpoints(&b.endpoints, &a.endpoints, "dedup");
        let (_, ep) = &b.endpoints[0];
        assert_eq!(ep.delivery().stale_drops, 2);
        assert_eq!(ep.last_seq(), 2);
        assert_eq!(ep.filter().state()[0], 2.0, "stale 9.0 never applied");
    }
}
