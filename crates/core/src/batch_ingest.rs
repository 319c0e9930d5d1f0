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
//! Everything else about the endpoint — sequence bookkeeping, pending
//! queues, counters, feedback — keeps running through the
//! [`ServerEndpoint`] exactly as before; only the filter arithmetic moves.
//!
//! ## Equivalence and demotion
//!
//! For every lane the batch kernels replicate the scalar filter's
//! floating-point operation order (see `kalstream_filter::FleetBatch`), and
//! syncs are applied to lanes through the same operations in the same
//! per-stream order, so a batched ingest run produces **bit-identical
//! endpoints** to the plain path — the invariant this module's tests and
//! the workspace proptests pin down. Streams leave the batch path (are
//! *demoted* to scalar, state handed back via
//! [`kalstream_filter::KalmanFilter::restore`]) when:
//!
//! * a **model sync** arrives — the replacement filter may have any shape,
//!   so the stream finishes the run scalar (re-promotion would buy little:
//!   model syncs are rare and grouping is a construction-time decision);
//! * the lane's state ends a tick **non-finite** — the scalar path owns the
//!   divergence bookkeeping from there. The check runs *after* the pending
//!   sweep, so a queued state sync can resynchronise a diverged lane and
//!   keep it batched, exactly as it would heal a scalar filter.
//!
//! Demotion swaps the group's last lane into the vacated slot
//! ([`DynFleetBatch::swap_remove_lane`]), so lanes stay dense.

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
    /// Positions of the scalar-routed endpoints (their own
    /// [`kalstream_filter::KalmanFilter`] steps, via
    /// [`ServerEndpoint::advance`]), ascending and maintained across
    /// demotions so the per-tick advance loop needs no re-sort. Every other endpoint's filter is dormant until demotion.
    scalar: Vec<usize>,
}

impl BatchLanes {
    /// Groups every endpoint that qualifies for the batch path (supported
    /// dims, Joseph covariance form, model shared with the group) and
    /// leaves the rest scalar.
    pub(crate) fn new(endpoints: &[(u32, ServerEndpoint)]) -> Self {
        let mut lanes = BatchLanes {
            groups: Vec::new(),
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

    /// Advances every endpoint one tick — the batch twin of calling
    /// [`ServerEndpoint::advance`] on each: batched groups predict as one
    /// fleet, scalar endpoints predict individually, then every endpoint's
    /// pending syncs apply in arrival order.
    pub(crate) fn advance_tick(&mut self, endpoints: &mut [(u32, ServerEndpoint)]) {
        // Phase 1: batched predicts. Lanes that come out non-finite get the
        // scalar path's per-tick `predict_failures` bookkeeping here;
        // whether they *stay* non-finite (→ demotion) is decided after the
        // pending sweep, since a queued state sync may resynchronise them.
        for group in self.groups.iter_mut() {
            if group.batch.predict_all() > 0 {
                for (lane, &slot) in group.slots.iter().enumerate() {
                    if !group.batch.lane_is_finite(lane) {
                        endpoints[slot].1.note_predict_failure();
                    }
                }
            }
        }
        // Phase 2: scalar endpoints take their normal advance. Streams
        // demoted during phase 3 below join this loop from the *next* tick —
        // their predict for this tick already ran in the batch.
        for &slot in self.scalar.iter() {
            endpoints[slot].1.advance();
        }
        // Phase 3: batched endpoints drain pending onto their lanes. After a
        // demotion the swapped-in lane re-runs at the same index, so no lane
        // is skipped.
        for g in 0..self.groups.len() {
            let mut lane = 0;
            while lane < self.groups[g].slots.len() {
                let slot = self.groups[g].slots[lane];
                if !self.drain_pending_onto_lane(g, lane, &mut endpoints[slot].1) {
                    lane += 1;
                }
            }
        }
    }

    /// Applies one batched stream's queued syncs to its lane (same
    /// operations, same order as [`ServerEndpoint::advance`]'s drain).
    /// Returns `true` when the stream was demoted (its lane is gone and the
    /// swapped-in lane, if any, now sits at `lane`).
    fn drain_pending_onto_lane(
        &mut self,
        group: usize,
        lane: usize,
        ep: &mut ServerEndpoint,
    ) -> bool {
        let batch = &mut self.groups[group].batch;
        let mut model_swapped = false;
        ep.drain_pending(|ep, msg| match msg {
            // A model sync earlier in this queue made the stream scalar:
            // the rest applies to the replacement filter, exactly as the
            // scalar drain would.
            _ if model_swapped => {
                ep.apply_view(msg);
            }
            SyncRef::State { x, p } => {
                if batch.set_lane_packed(lane, x.iter(), p.iter()).is_ok() {
                    ep.note_sync_applied();
                }
            }
            SyncRef::Measurement { z } => {
                // On `Diverged` the lane keeps the non-finite posterior —
                // exactly what the scalar filter leaves behind — and the
                // finite check below demotes it. Other errors leave the
                // lane untouched; either way the sync is not counted.
                let applied = z
                    .read_into(&mut [0.0; VECTOR_INLINE_CAP])
                    .is_some_and(|z| batch.update_lane(lane, z).is_ok());
                if applied {
                    ep.note_sync_applied();
                }
            }
            // The replacement filter may have any shape, so it is installed
            // in the endpoint and the stream leaves the batch. On rejection
            // the stream simply stays batched.
            SyncRef::Model(_) => model_swapped = ep.apply_view(msg),
        });
        // A model sync already installed a replacement filter; a diverged
        // lane hands its state back to the endpoint's own.
        let diverged = !model_swapped && !batch.lane_is_finite(lane);
        if diverged {
            restore_lane(batch, lane, ep);
        }
        if model_swapped || diverged {
            self.demote(group, lane);
        }
        model_swapped || diverged
    }

    /// Removes a lane and routes its endpoint scalar.
    fn demote(&mut self, group: usize, lane: usize) {
        let g = &mut self.groups[group];
        g.batch.swap_remove_lane(lane);
        let slot = g.slots.swap_remove(lane);
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
