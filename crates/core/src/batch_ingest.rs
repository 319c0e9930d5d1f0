//! Batch-dispatched ingest: same-model stream groups stepped through
//! structure-of-arrays fleet kernels.
//!
//! The plain ingest path advances every [`ServerEndpoint`]'s filter one at a
//! time — correct, but at fleet scale the per-stream predict dominates the
//! tick. [`BatchLanes`] interposes a dispatch layer in front of a shard's
//! endpoints: at construction it groups endpoints whose filters run the
//! **same model** at a supported `(state_dim, measurement_dim)` shape (see
//! [`DynFleetBatch::supported`]) with the default Joseph covariance form,
//! copies each group's per-stream state into [`DynFleetBatch`] lanes, and
//! from then on advances whole groups with one `predict_all` per tick.
//! Everything else about the endpoint — sequence bookkeeping, counters,
//! feedback — keeps running through the [`ServerEndpoint`] exactly as
//! before; only the filter arithmetic moves.
//!
//! ## Equivalence and demotion
//!
//! For every lane the batch kernels replicate the scalar filter's
//! floating-point operation order (see `kalstream_filter::FleetBatch`). The
//! shard predicts every lane, then walks the tick's frames once and hands
//! each admitted sync to [`BatchLanes::apply`], which applies it to the
//! stream's lane (or, for a scalar-routed stream, its own filter) through
//! the same operations in the same per-stream order as the plain path. A
//! batched ingest run therefore produces **bit-identical endpoints** to the
//! plain path — the invariant this module's tests and the workspace
//! proptests pin down. Streams leave the batch path (are *demoted* to
//! scalar) when:
//!
//! * a **model sync** arrives — the replacement filter may have any shape,
//!   so it is installed in the endpoint at once and the stream finishes the
//!   run scalar; the tick's later syncs for it go to that filter
//!   (re-promotion would buy little: model syncs are rare and grouping is a
//!   construction-time decision);
//! * the lane's state ends a tick **non-finite** — its state goes back via
//!   [`kalstream_filter::KalmanFilter::restore`] and the scalar path owns
//!   the divergence bookkeeping from there. The check runs *after* the
//!   tick's whole apply walk ([`BatchLanes::settle`]), so a later state sync
//!   can resynchronise a diverged lane and keep it batched, exactly as it
//!   would heal a scalar filter.
//!
//! Demotion swaps the group's last lane into the vacated slot
//! ([`DynFleetBatch::swap_remove_lane`]), so lanes stay dense; the
//! endpoint → lane map follows the moved lane, so its later syncs in the
//! same walk still find it.

use kalstream_filter::{CovarianceUpdate, DynFleetBatch};
use kalstream_linalg::VECTOR_INLINE_CAP;

use crate::ingest::{IngestResult, Shard, TickIngest};
use crate::server::{EndpointState, ServerEndpoint};
use crate::wire::SyncRef;

/// One same-model lane group.
struct BatchGroup {
    batch: DynFleetBatch,
    /// `slots[lane]` is the position (in the shard's endpoint slice) of the
    /// endpoint owning that lane.
    slots: Vec<usize>,
}

/// The fleet-batch lanes in front of one shard's endpoints. Endpoints are
/// addressed by their position in the shard's id-sorted slice, which every
/// method takes by reference — the shard owns the endpoints, the lanes only
/// carry the batched ones' filter arithmetic.
pub(crate) struct BatchLanes {
    groups: Vec<BatchGroup>,
    /// `lane_of[slot]` is the `(group, lane)` carrying endpoint `slot`'s
    /// filter, `None` for a scalar-routed endpoint — the inverse of the
    /// groups' `slots`, kept in step across every `swap_remove`.
    lane_of: Vec<Option<(u32, u32)>>,
    /// Positions of the scalar-routed endpoints (their own
    /// [`kalstream_filter::KalmanFilter`] steps), ascending and maintained
    /// across demotions so the per-tick predict loop needs no re-sort.
    /// Every other endpoint's filter is dormant until demotion.
    scalar: Vec<usize>,
}

impl BatchLanes {
    /// Groups every endpoint that qualifies for the batch path (supported
    /// dims, Joseph covariance form, model shared with the group) and
    /// leaves the rest scalar.
    pub(crate) fn new(endpoints: &[(u32, ServerEndpoint)]) -> Self {
        let mut lanes = BatchLanes {
            groups: Vec::new(),
            lane_of: vec![None; endpoints.len()],
            scalar: Vec::new(),
        };
        for (slot, (_, ep)) in endpoints.iter().enumerate() {
            let filter = ep.filter();
            let model = filter.model();
            if filter.covariance_update() != CovarianceUpdate::Joseph
                || !DynFleetBatch::supported(model.state_dim(), model.measurement_dim())
            {
                lanes.scalar.push(slot);
                continue;
            }
            let group = match lanes.groups.iter().position(|g| g.batch.model() == model) {
                Some(g) => g,
                None => {
                    let batch = DynFleetBatch::for_model(model)
                        .expect("supported dims have a batch kernel");
                    lanes.groups.push(BatchGroup {
                        batch,
                        slots: Vec::new(),
                    });
                    lanes.groups.len() - 1
                }
            };
            let g = &mut lanes.groups[group];
            g.batch
                .push(
                    filter.state(),
                    filter.covariance(),
                    filter.steps_since_update(),
                )
                .expect("endpoint filter shape matches its own model");
            lanes.lane_of[slot] = Some((group as u32, g.slots.len() as u32));
            g.slots.push(slot);
        }
        lanes
    }

    /// `(batched, scalar)` stream counts — the dispatcher's coverage, worth
    /// watching next to the `linalg.heap_fallbacks` counter.
    pub(crate) fn coverage(&self) -> (usize, usize) {
        let batched = self.groups.iter().map(|g| g.slots.len()).sum();
        (batched, self.scalar.len())
    }

    /// The predict phase of a tick — the batch twin of calling
    /// `ServerEndpoint::predict` on each endpoint: batched groups predict as
    /// one fleet, then scalar endpoints predict individually. Lanes that
    /// come out non-finite get the scalar path's per-tick
    /// `predict_failures` bookkeeping here; whether they *stay* non-finite
    /// (→ demotion) is decided by [`BatchLanes::settle`], since a sync later
    /// in the tick may resynchronise them.
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
        for &slot in self.scalar.iter() {
            endpoints[slot].1.predict();
        }
    }

    /// Applies one admitted sync for endpoint `slot` (`ep`): to its lane
    /// when it has one — the same operations `apply_sync` runs on a filter —
    /// and to its own filter otherwise.
    pub(crate) fn apply(&mut self, slot: usize, ep: &mut ServerEndpoint, msg: SyncRef<'_>) {
        let Some((group, lane)) = self.lane_of[slot] else {
            ep.apply_view(msg);
            return;
        };
        let (group, lane) = (group as usize, lane as usize);
        let batch = &mut self.groups[group].batch;
        let applied = match msg {
            SyncRef::State { x, p } => batch.set_lane_packed(lane, x.iter(), p.iter()).is_ok(),
            // On `Diverged` the lane keeps the non-finite posterior —
            // exactly what the scalar filter leaves behind — and `settle`
            // demotes it. Other errors leave the lane untouched; either way
            // the sync is not counted.
            SyncRef::Measurement { z } => z
                .read_into(&mut [0.0; VECTOR_INLINE_CAP])
                .is_some_and(|z| batch.update_lane(lane, z).is_ok()),
            // The replacement filter may have any shape, so it is installed
            // in the endpoint and the stream leaves the batch now: the
            // tick's later syncs for it find no lane. On rejection the
            // stream simply stays batched.
            SyncRef::Model(_) => {
                if ep.apply_view(msg) {
                    self.demote(group, lane);
                }
                return;
            }
        };
        if applied {
            ep.note_sync_applied();
        }
    }

    /// Demotes every lane the tick left non-finite, handing its state back
    /// to its endpoint's own filter. Runs after the tick's whole apply walk.
    /// After a demotion the swapped-in lane is checked at the same index, so
    /// no lane is skipped.
    pub(crate) fn settle(&mut self, endpoints: &mut [(u32, ServerEndpoint)]) {
        for group in 0..self.groups.len() {
            let mut lane = 0;
            while lane < self.groups[group].slots.len() {
                let g = &self.groups[group];
                if g.batch.lane_is_finite(lane) {
                    lane += 1;
                    continue;
                }
                restore_lane(&g.batch, lane, &mut endpoints[g.slots[lane]].1);
                self.demote(group, lane);
            }
        }
    }

    /// Removes a lane and routes its endpoint scalar; the group's last lane
    /// moves into the vacated index, and its endpoint's map entry with it.
    fn demote(&mut self, group: usize, lane: usize) {
        let g = &mut self.groups[group];
        g.batch.swap_remove_lane(lane);
        let slot = g.slots.swap_remove(lane);
        if let Some(&moved) = g.slots.get(lane) {
            self.lane_of[moved] = Some((group as u32, lane as u32));
        }
        self.lane_of[slot] = None;
        let at = self.scalar.partition_point(|&s| s < slot);
        self.scalar.insert(at, slot);
    }

    /// Overlays every live lane's `x`/`p`/staleness onto `states` (one per
    /// endpoint, in endpoint order) — for batched streams the endpoint's own
    /// filter is dormant, so its captured triplet is stale until overlaid.
    pub(crate) fn overlay(&self, states: &mut [(u32, EndpointState)]) {
        for group in self.groups.iter() {
            for (lane, &slot) in group.slots.iter().enumerate() {
                let state = &mut states[slot].1;
                (state.x, state.p, state.steps_since_update) = group.batch.lane_state(lane);
            }
        }
    }

    /// Hands every remaining lane's state back to its endpoint filter, so
    /// the endpoints hold the same shape (and, for the same traffic, the
    /// same bits) the plain path produces.
    pub(crate) fn restore(&self, endpoints: &mut [(u32, ServerEndpoint)]) {
        for group in self.groups.iter() {
            for (lane, &slot) in group.slots.iter().enumerate() {
                restore_lane(&group.batch, lane, &mut endpoints[slot].1);
            }
        }
    }
}

/// Copies one lane's state into its endpoint's own filter.
fn restore_lane(batch: &DynFleetBatch, lane: usize, ep: &mut ServerEndpoint) {
    let (x, p, steps) = batch.lane_state(lane);
    ep.filter_mut()
        .restore(x, p, steps)
        .expect("lane shape matches its endpoint's model");
}

/// Single-threaded ingester over one batched inline `Shard` — the batch
/// twin of [`crate::SequentialIngest`], stepping exactly what a batched
/// [`crate::IngestPipeline`]'s workers step. Same tick semantics, same
/// [`IngestResult`] shape (one pseudo-shard).
pub struct BatchedIngest(Shard);

impl BatchedIngest {
    /// Builds the ingester over `endpoints`, batch-grouping the eligible
    /// ones.
    pub fn new(endpoints: Vec<(u32, ServerEndpoint)>) -> Self {
        BatchedIngest(Shard::new(0, endpoints, true, None))
    }

    /// `(batched, scalar)` stream counts.
    pub fn coverage(&self) -> (usize, usize) {
        self.0.coverage().expect("a batched shard has lanes")
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
    use kalstream_filter::{models, KalmanFilter};
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

    #[test]
    fn groups_same_model_streams_and_leaves_ineligible_ones_scalar() {
        let mut endpoints = Vec::new();
        // 3-state constant acceleration: outside the batch shape table,
        // stays scalar.
        for id in 0..3u32 {
            let kf = KalmanFilter::new(
                models::constant_acceleration(1.0, 0.02, 0.1),
                Vector::zeros(3),
                1.0,
            )
            .unwrap();
            endpoints.push((id, ServerEndpoint::new(kf)));
        }
        // 2-state constant velocity: batched, one shared group.
        for id in 3..8u32 {
            let kf = KalmanFilter::new(
                models::constant_velocity(1.0, 0.05, 0.1),
                Vector::zeros(2),
                1.0,
            )
            .unwrap();
            endpoints.push((id, ServerEndpoint::new(kf)));
        }
        // Simple covariance form: stays scalar even at supported dims.
        let mut kf = KalmanFilter::new(
            models::constant_velocity(1.0, 0.05, 0.1),
            Vector::zeros(2),
            1.0,
        )
        .unwrap();
        kf.set_covariance_update(CovarianceUpdate::Simple);
        endpoints.push((8, ServerEndpoint::new(kf)));
        let lanes = BatchLanes::new(&endpoints);
        assert_eq!(lanes.coverage(), (5, 4));
        assert_eq!(lanes.groups.len(), 1);
        assert_eq!(lanes.scalar, vec![0, 1, 2, 8]);
    }

    #[test]
    fn default_scalar_fleet_is_fully_batched() {
        // The benchmark's own fleet: 1-state adaptive random walks. Before
        // the table had a 1×1 row they all fell back to the scalar path.
        let (servers, _) = record_log(0, 16, 0);
        let lanes = BatchLanes::new(&servers);
        assert_eq!(lanes.coverage(), (16, 0));
        assert_eq!(lanes.groups.len(), 1);
    }

    #[test]
    fn batched_ingest_matches_sequential_bit_for_bit() {
        // 12 CV (2×1) and 4 default scalar (1×1) sessions batch in two
        // groups; 4 constant-acceleration (3×1) sessions stay scalar.
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
        assert_eq!(batched.coverage(), (16, 4));
        for tick in &log {
            TickIngest::ingest_tick(&mut batched, tick);
        }
        let result = batched.finish();
        assert_eq!(result.total_messages(), seq_result.total_messages());
        assert_same_endpoints(&result.endpoints, &seq_result.endpoints, "batched");
    }

    #[test]
    fn model_sync_demotes_stream_to_scalar_identically() {
        // Stream 1 (batched) receives a model sync mid-run — trailed by a
        // measurement in the same tick that must land on the replacement
        // filter — then keeps receiving ordinary traffic to the end.
        let (servers, mut log) = record_log(4, 0, 40);
        let mut extra = FrameBatch::new();
        extra.push(
            1,
            &SyncMessage::Model {
                model: Box::new(models::constant_acceleration(1.0, 0.02, 0.1)),
                x: Vector::from_slice(&[0.5, 0.1, 0.0]),
                p: Matrix::scalar(3, 1.0),
            },
        );
        extra.push(
            1,
            &SyncMessage::Measurement {
                z: Vector::from_slice(&[0.6]),
            },
        );
        let mut merged = extra.as_bytes().to_vec();
        merged.extend_from_slice(&log[20]);
        log[20] = merged;

        let mut seq = SequentialIngest::new(servers.clone());
        let mut batched = BatchedIngest::new(servers);
        assert_eq!(batched.coverage(), (4, 0));
        for tick in &log {
            seq.ingest_tick(tick);
            batched.ingest_tick(tick);
        }
        assert_eq!(batched.coverage(), (3, 1), "stream 1 demoted");
        let seq_result = seq.finish();
        let result = batched.finish();
        assert_same_endpoints(&result.endpoints, &seq_result.endpoints, "model-sync");
        let (_, ep1) = &result.endpoints[1];
        assert_eq!(ep1.filter().model().name(), "constant_acceleration");
    }

    /// `lane_of` is exactly the inverse of the groups' `slots`, and every
    /// other endpoint is scalar-routed.
    fn assert_lane_map_holds(lanes: &BatchLanes) {
        let mut mapped = 0;
        for (g, group) in lanes.groups.iter().enumerate() {
            for (lane, &slot) in group.slots.iter().enumerate() {
                assert_eq!(lanes.lane_of[slot], Some((g as u32, lane as u32)));
                mapped += 1;
            }
        }
        for &slot in &lanes.scalar {
            assert_eq!(lanes.lane_of[slot], None);
        }
        assert_eq!(mapped + lanes.scalar.len(), lanes.lane_of.len());
    }

    #[test]
    fn model_sync_mid_walk_demotes_at_once_and_the_moved_lane_keeps_its_frames() {
        // Four CV streams batch as lanes 0..4 of one group. In one tick
        // stream 1 gets State → Measurement → Model → State: the Model
        // installs a replacement filter and demotes the stream mid-walk,
        // stream 3's lane is swapped into lane 1, and stream 3 has frames
        // later in that tick, as does stream 1 (on its new filter).
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
        let demote_at = 10;
        let mut merged = extra.as_bytes().to_vec();
        merged.extend_from_slice(&log[demote_at]);
        log[demote_at] = merged;

        let mut seq = SequentialIngest::new(servers.clone());
        let mut batched = BatchedIngest::new(servers);
        for (t, tick) in log.iter().enumerate() {
            seq.ingest_tick(tick);
            batched.ingest_tick(tick);
            let lanes = batched.0.lanes().expect("a batched shard has lanes");
            assert_lane_map_holds(lanes);
            if t == demote_at {
                assert_eq!(lanes.lane_of[1], None, "stream 1 demoted");
                assert_eq!(lanes.lane_of[3], Some((0, 1)), "stream 3 moved");
                assert_eq!(lanes.groups[0].slots, vec![0, 3, 2]);
            }
        }
        assert_eq!(batched.coverage(), (3, 1));
        let a = seq.finish();
        let b = batched.finish();
        assert_same_endpoints(&b.endpoints, &a.endpoints, "mid-walk demotion");
        let (_, ep1) = &b.endpoints[1];
        assert_eq!(ep1.filter().model().name(), "constant_acceleration");
    }

    #[test]
    fn state_sync_heals_a_diverged_lane_without_demotion() {
        // Poison a lane with a non-finite state sync — which set_lane
        // accepts (like set_state, it validates shape only) — and heal it
        // with a later sync *in the same tick*. The demotion check runs
        // after the whole pending drain, so the healed lane stays batched,
        // exactly as the scalar filter would simply absorb both syncs.
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
        assert_eq!(batched.coverage(), (2, 0), "healed lane stays batched");
        let a = seq.finish();
        let b = batched.finish();
        assert_same_endpoints(&b.endpoints, &a.endpoints, "heal");
        let (_, ep) = &b.endpoints[0];
        assert_eq!(ep.predict_failures(), 0);
        assert!(ep.filter().state().iter().all(|v| v.is_finite()));
    }

    #[test]
    fn unhealed_diverged_lane_is_demoted_and_keeps_scalar_bookkeeping() {
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
        assert_eq!(batched.coverage(), (1, 1), "poisoned lane demoted");
        for _ in 0..3 {
            seq.ingest_tick(quiet.as_bytes());
            batched.ingest_tick(quiet.as_bytes());
        }
        let a = seq.finish();
        let b = batched.finish();
        assert_same_endpoints(&b.endpoints, &a.endpoints, "diverged");
        // The poison sync lands *after* tick 1's predict, so only the three
        // quiet ticks predict on a non-finite state — on the scalar path the
        // demoted stream took over from tick 2 onward.
        let (_, ep) = &b.endpoints[0];
        assert_eq!(ep.predict_failures(), 3, "every later tick keeps failing");
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
