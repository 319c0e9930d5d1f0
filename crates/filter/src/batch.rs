//! Structure-of-arrays fleet stepping: thousands of same-model filters
//! advanced a few lanes at a time by the scalar filter's own kernel.
//!
//! The scalar path ([`KalmanFilter`]) steps one stream at a time, its
//! state loaded from and stored back to `Vector`/`Matrix` values around
//! every step — fine for a handful of streams, but at fleet scale the
//! per-stream dispatch and the tiny (n ≤ 8) loop bodies leave the SIMD
//! units idle. [`FleetBatch`] transposes the layout: each scalar *slot* of
//! the state (`x[r]`, `P[r][c]`, …) becomes a contiguous **plane** of `len`
//! lane values, so `W` neighbouring filters' copies of a slot are one
//! contiguous load. A batch operation is then "for each chunk of `W`
//! lanes: load the planes into [`Pack`]s, call the [`StaticKernel`], store"
//! — the model matrices are shared by all lanes through the kernel, and
//! every element-wise operation on a pack is one the compiler vectorizes.
//!
//! ## Lanes run the scalar kernel
//!
//! There is no batch arithmetic in this module. [`StaticKernel`]'s step
//! is generic over the width it runs at (`kalstream_linalg::Lane`): a lone
//! [`KalmanFilter`] instantiates it at `f64`, a chunk here at `Pack<W>`.
//! Stepping a lane through [`FleetBatch::predict_all`] /
//! [`FleetBatch::update_all`] is therefore **bit-identical** to stepping a
//! scalar Joseph-form filter through `predict` / `update` with the same
//! inputs — suppression verdicts included, which are pure functions of the
//! (identical) state — because both *are* the same function. The one
//! width-dependent rule, the products' zero-skip, is `Lane::is_zero`, whose
//! docs carry the argument that it changes no bit of a finite lane.
//!
//! A lane that leaves finite range (counted by [`FleetBatch::predict_all`],
//! flagged by [`FleetBatch::lane_is_finite`]) is outside the contract — the
//! dispatcher demotes such lanes back to the scalar path, which owns the
//! divergence bookkeeping. It cannot disturb its chunk neighbours: no pack
//! operation mixes filters.
//!
//! [`KalmanFilter`]: crate::KalmanFilter

// Explicit `0..N` index loops are kept: `r` and `c` are the subscripts of
// `x_r` and `P[r][c]`, and each loop indexes a plane list and a pack array
// by the same pair.
#![allow(clippy::needless_range_loop)]

use kalstream_linalg::{Lane, Matrix, Pack, StaticKernel, Vector};

use crate::{FilterError, Result, StateModel};

/// Lanes per kernel call: a constant picked by measurement, not a
/// parameter (EXPERIMENTS.md T5, PR 22 addendum). At 2 the per-chunk
/// loads, stores and bounds checks are paid twice as often; at 8 even a
/// 2 × 1 chunk outgrows x86-64's sixteen vector registers; 4 was fastest
/// or tied on every shape from 1 × 1 to 8 × 4.
const W: usize = 4;

// The helpers below are `inline(always)`: left to its own cost model the
// compiler keeps them as calls, every pack then crosses the call through
// memory, and a 2 × 1 step costs half as much again (same addendum).

/// One chunk's state and covariance, a [`Pack`] per slot.
type Chunk<const N: usize> = ([Pack<W>; N], [[Pack<W>; N]; N]);

/// `W` consecutive lanes of `plane` from `at`. A chunk that runs past the
/// plane's end repeats the last lane: a copy of a real filter fails a
/// pivot only where that filter does, and nothing past the end is ever
/// stored or counted.
#[inline(always)]
fn load(plane: &[f64], at: usize) -> Pack<W> {
    match plane[at..].first_chunk::<W>() {
        Some(chunk) => Pack(*chunk),
        None => {
            let mut tail = Pack([plane[plane.len() - 1]; W]);
            tail.0[..plane.len() - at].copy_from_slice(&plane[at..]);
            tail
        }
    }
}

/// [`load`] for each of the `M` planes of a plane-major measurement batch.
#[inline(always)]
fn load_measurements<const M: usize>(z: &[f64], len: usize, at: usize) -> [Pack<W>; M] {
    let mut zs = [Pack([0.0; W]); M];
    for j in 0..M {
        zs[j] = load(&z[j * len..(j + 1) * len], at);
    }
    zs
}

/// Writes `v`'s lanes to `plane` from `at`, dropping those past its end.
#[inline(always)]
fn store(plane: &mut [f64], at: usize, v: Pack<W>) {
    match plane[at..].first_chunk_mut::<W>() {
        Some(chunk) => *chunk = v.0,
        None => {
            let n = plane.len() - at;
            plane[at..].copy_from_slice(&v.0[..n]);
        }
    }
}

/// [`store`] for every slot of a chunk.
#[inline(always)]
fn store_chunk<const N: usize>(
    x_planes: &mut [Vec<f64>],
    p_planes: &mut [Vec<f64>],
    at: usize,
    (x, p): &Chunk<N>,
) {
    for r in 0..N {
        store(&mut x_planes[r], at, x[r]);
        for c in 0..N {
            store(&mut p_planes[r * N + c], at, p[r][c]);
        }
    }
}

/// How many of a chunk's first `n` lanes hold a non-finite value: `v · 0.0`
/// is `0.0` for finite `v` and NaN otherwise, so one fused sum over the
/// slots decides every lane at once.
#[inline(always)]
fn count_nonfinite<const N: usize>((x, p): &Chunk<N>, n: usize) -> usize {
    let mut acc = Pack::splat(0.0);
    for r in 0..N {
        acc += x[r] * Pack::splat(0.0);
        for c in 0..N {
            acc += p[r][c] * Pack::splat(0.0);
        }
    }
    acc.0.iter().take(n).filter(|a| **a != 0.0).count()
}

/// A structure-of-arrays batch of same-model Joseph-form Kalman filters.
///
/// All lanes share one [`StateModel`] (and hence one [`StaticKernel`]);
/// per-lane state lives in columnar planes. See the module docs for the
/// layout and why a lane is bit-identical to a scalar filter.
pub struct FleetBatch<const N: usize, const M: usize> {
    kernel: StaticKernel<N, M>,
    model: StateModel,
    len: usize,
    /// State planes: `x[r][s]` is lane `s`'s `x_r`.
    x: Vec<Vec<f64>>,
    /// Covariance planes: `p[r * N + c][s]` is lane `s`'s `P[r][c]`.
    p: Vec<Vec<f64>>,
    /// Per-lane predict steps since the last measurement update.
    steps_since_update: Vec<u64>,
    /// [`FleetBatch::update_all`]'s posterior until every chunk has
    /// factored: planes shaped like `x` and `p`, fully overwritten before
    /// they are swapped in, carrying nothing between calls.
    posterior: (Vec<Vec<f64>>, Vec<Vec<f64>>),
}

impl<const N: usize, const M: usize> FleetBatch<N, M> {
    /// Creates an empty batch over `model`.
    ///
    /// # Errors
    /// [`FilterError::BadModel`] when the model's dimensions are not
    /// `(N, M)`.
    pub fn new(model: &StateModel) -> Result<Self> {
        if model.state_dim() != N || model.measurement_dim() != M {
            return Err(FilterError::BadModel {
                what: "batch dims",
                expected: (N, M),
                actual: (model.state_dim(), model.measurement_dim()),
            });
        }
        let kernel =
            StaticKernel::<N, M>::from_matrices(model.f(), model.q(), model.h(), model.r())?;
        let planes = |count: usize| -> Vec<Vec<f64>> { vec![Vec::new(); count] };
        Ok(FleetBatch {
            kernel,
            model: model.clone(),
            len: 0,
            x: planes(N),
            p: planes(N * N),
            steps_since_update: Vec::new(),
            posterior: (planes(N), planes(N * N)),
        })
    }

    /// The shared model all lanes run.
    pub fn model(&self) -> &StateModel {
        &self.model
    }

    /// Number of lanes.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the batch holds no lanes.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Appends a lane with state `x0`, covariance `p0` and a carried-over
    /// staleness counter (see [`KalmanFilter::restore`]); returns its index.
    /// Use `steps_since_update = 0` for a fresh filter.
    ///
    /// # Errors
    /// [`FilterError::BadModel`] on shape mismatch.
    ///
    /// [`KalmanFilter::restore`]: crate::KalmanFilter::restore
    pub fn push(&mut self, x0: &Vector, p0: &Matrix, steps_since_update: u64) -> Result<usize> {
        if x0.dim() != N {
            return Err(FilterError::BadModel {
                what: "x0",
                expected: (N, 1),
                actual: (x0.dim(), 1),
            });
        }
        if p0.shape() != (N, N) {
            return Err(FilterError::BadModel {
                what: "P0",
                expected: (N, N),
                actual: p0.shape(),
            });
        }
        let lane = self.len;
        for r in 0..N {
            self.x[r].push(x0[r]);
            for c in 0..N {
                self.p[r * N + c].push(p0.get(r, c));
            }
        }
        self.steps_since_update.push(steps_since_update);
        self.len += 1;
        Ok(lane)
    }

    /// Lane `lane`'s state and covariance as the scalar kernel takes them.
    fn lane(&self, lane: usize) -> ([f64; N], [[f64; N]; N]) {
        let (mut x, mut p) = ([0.0; N], [[0.0; N]; N]);
        for r in 0..N {
            x[r] = self.x[r][lane];
            for c in 0..N {
                p[r][c] = self.p[r * N + c][lane];
            }
        }
        (x, p)
    }

    /// The `W` lanes from `at` (see [`load`] for a short last chunk).
    #[inline(always)]
    fn chunk(&self, at: usize) -> Chunk<N> {
        let (mut x, mut p) = ([Pack([0.0; W]); N], [[Pack([0.0; W]); N]; N]);
        for r in 0..N {
            x[r] = load(&self.x[r], at);
            for c in 0..N {
                p[r][c] = load(&self.p[r * N + c], at);
            }
        }
        (x, p)
    }

    /// Lane `lane`'s state, covariance and staleness, gathered back into
    /// row-major dynamic values — the handoff payload for demoting a lane to
    /// the scalar path.
    pub fn lane_state(&self, lane: usize) -> (Vector, Matrix, u64) {
        let (x, p) = self.lane(lane);
        let mut p_out = Matrix::zeros(N, N);
        p_out.as_mut_slice().copy_from_slice(p.as_flattened());
        (Vector::from_slice(&x), p_out, self.steps_since_update[lane])
    }

    /// Lane `lane`'s staleness counter.
    pub fn steps_since_update(&self, lane: usize) -> u64 {
        self.steps_since_update[lane]
    }

    /// Overwrites lane `lane`'s state and covariance and resets its
    /// staleness to zero — the batch twin of
    /// [`KalmanFilter::set_state_packed`] (a protocol resynchronisation,
    /// straight off the wire): `x`, then the row-major upper triangle of `P`,
    /// mirrored to both halves.
    ///
    /// # Errors
    /// [`FilterError::BadModel`] on length mismatch (the lane is untouched).
    ///
    /// [`KalmanFilter::set_state_packed`]: crate::KalmanFilter::set_state_packed
    pub fn set_lane_packed(
        &mut self,
        lane: usize,
        x: impl ExactSizeIterator<Item = f64>,
        p_upper: impl ExactSizeIterator<Item = f64>,
    ) -> Result<()> {
        crate::kalman::check_packed_lens(N, x.len(), p_upper.len())?;
        for (plane, v) in self.x.iter_mut().zip(x) {
            plane[lane] = v;
        }
        let mut p_upper = p_upper;
        for r in 0..N {
            for c in r..N {
                let v = p_upper.next().expect("length checked above");
                self.p[r * N + c][lane] = v;
                self.p[c * N + r][lane] = v;
            }
        }
        self.steps_since_update[lane] = 0;
        Ok(())
    }

    /// Removes lane `lane` in O(planes): the **last** lane moves into its
    /// slot (`Vec::swap_remove` per plane). Returns the index of the lane
    /// that moved (the old last lane), or `None` when `lane` was the last —
    /// the caller updates its lane bookkeeping accordingly. Used by the
    /// ingest dispatcher to demote a stream to the scalar path.
    pub fn swap_remove_lane(&mut self, lane: usize) -> Option<usize> {
        for plane in self.x.iter_mut().chain(self.p.iter_mut()) {
            plane.swap_remove(lane);
        }
        self.steps_since_update.swap_remove(lane);
        self.len -= 1;
        (lane < self.len).then_some(self.len)
    }

    /// Whether lane `lane`'s state and covariance are fully finite.
    pub fn lane_is_finite(&self, lane: usize) -> bool {
        self.x.iter().all(|plane| plane[lane].is_finite())
            && self.p.iter().all(|plane| plane[lane].is_finite())
    }

    /// Time update for every lane: `x ← F x`, `P ← F P Fᵀ + Q`, per-lane
    /// bit-identical to [`KalmanFilter::predict`]. Returns the number of
    /// lanes whose state or covariance is non-finite afterwards (the scalar
    /// path's `Diverged` error, which likewise leaves the non-finite values
    /// in place); callers demote such lanes to the scalar path.
    ///
    /// [`KalmanFilter::predict`]: crate::KalmanFilter::predict
    pub fn predict_all(&mut self) -> usize {
        let mut nonfinite = 0;
        for at in (0..self.len).step_by(W) {
            let mut chunk = self.chunk(at);
            self.kernel.predict(&mut chunk.0, &mut chunk.1);
            nonfinite += count_nonfinite(&chunk, self.len - at);
            store_chunk(&mut self.x, &mut self.p, at, &chunk);
        }
        for steps in self.steps_since_update.iter_mut() {
            *steps += 1;
        }
        nonfinite
    }

    /// Joseph-form measurement update for every lane with observations `z`
    /// in plane-major layout (`z[j * len + s]` is lane `s`'s `z_j`),
    /// per-lane bit-identical to [`KalmanFilter::update`].
    ///
    /// All-or-nothing: chunk posteriors are written to planes of their own
    /// and only swapped in when every chunk's innovation covariances
    /// factor, so an `Err` leaves the batch untouched. (The sporadic-update
    /// ingest path uses [`FleetBatch::update_lane`] instead, which fails
    /// per lane exactly like the scalar filter.) Returns the number of
    /// non-finite lanes after the update, like [`FleetBatch::predict_all`].
    ///
    /// # Errors
    /// * [`FilterError::BadMeasurement`] when `z.len() != M · len`.
    /// * [`FilterError::Linalg`] when some lane's `S` is not positive
    ///   definite, naming the failed pivot of a lane in the first chunk of
    ///   `W` lanes that holds one.
    ///
    /// [`KalmanFilter::update`]: crate::KalmanFilter::update
    pub fn update_all(&mut self, z: &[f64]) -> Result<usize> {
        let len = self.len;
        if z.len() != M * len {
            return Err(FilterError::BadMeasurement {
                expected: M * len,
                actual: z.len(),
            });
        }
        let (x_post, p_post) = &mut self.posterior;
        for plane in x_post.iter_mut().chain(p_post.iter_mut()) {
            plane.resize(len, 0.0);
        }
        let mut nonfinite = 0;
        for at in (0..len).step_by(W) {
            let mut chunk = self.chunk(at);
            let zs = load_measurements(z, len, at);
            self.kernel.update_state(&mut chunk.0, &mut chunk.1, &zs)?;
            nonfinite += count_nonfinite(&chunk, len - at);
            let (x_post, p_post) = &mut self.posterior;
            store_chunk(x_post, p_post, at, &chunk);
        }
        std::mem::swap(&mut self.x, &mut self.posterior.0);
        std::mem::swap(&mut self.p, &mut self.posterior.1);
        self.steps_since_update.fill(0);
        Ok(nonfinite)
    }

    /// Measurement update for a single lane, bit-identical to the scalar
    /// filter (it *is* the [`StaticKernel`] single-stream path): gather the
    /// lane, update, scatter back. This is the ingest path's primitive —
    /// sync events arrive per stream, not per fleet.
    ///
    /// # Errors
    /// * [`FilterError::BadMeasurement`] on dimension mismatch.
    /// * [`FilterError::Linalg`] when `S` is not positive definite (lane
    ///   untouched).
    /// * [`FilterError::Diverged`] when the posterior is non-finite (the
    ///   non-finite values stay in place, like the scalar path).
    pub fn update_lane(&mut self, lane: usize, z: &[f64]) -> Result<()> {
        let zs = <[f64; M]>::try_from(z).map_err(|_| FilterError::BadMeasurement {
            expected: M,
            actual: z.len(),
        })?;
        let (mut x, mut p) = self.lane(lane);
        self.kernel.update(&mut x, &mut p, &zs)?;
        for r in 0..N {
            self.x[r][lane] = x[r];
            for c in 0..N {
                self.p[r * N + c][lane] = p[r][c];
            }
        }
        self.steps_since_update[lane] = 0;
        if !self.lane_is_finite(lane) {
            return Err(FilterError::Diverged { what: "state" });
        }
        Ok(())
    }

    /// Lane `lane`'s predicted measurement `H x` (scalar
    /// `predicted_measurement` order).
    pub fn predicted_measurement(&self, lane: usize) -> Vector {
        Vector::from_slice(&self.kernel.predicted_measurement(&self.lane(lane).0))
    }

    /// Suppression verdicts for the whole batch: `out[s]` is `true` when
    /// lane `s`'s predicted measurement is within `delta` of its observation
    /// in max-norm — exactly the scalar protocol's
    /// `precision_norm(predicted, z) <= delta` test (`Vector::max_abs_diff`
    /// fold order included). `z` is plane-major like
    /// [`FleetBatch::update_all`].
    ///
    /// # Errors
    /// [`FilterError::BadMeasurement`] when `z.len() != M · len` or
    /// `out.len() != len`.
    pub fn suppression_verdicts_into(
        &mut self,
        z: &[f64],
        delta: f64,
        out: &mut [bool],
    ) -> Result<()> {
        let len = self.len;
        if z.len() != M * len {
            return Err(FilterError::BadMeasurement {
                expected: M * len,
                actual: z.len(),
            });
        }
        if out.len() != len {
            return Err(FilterError::BadMeasurement {
                expected: len,
                actual: out.len(),
            });
        }
        for at in (0..len).step_by(W) {
            let mut x = [Pack([0.0; W]); N];
            for r in 0..N {
                x[r] = load(&self.x[r], at);
            }
            let zs = load_measurements(z, len, at);
            let err = self.kernel.innovation_norm(&x, &zs);
            for (verdict, e) in out[at..].iter_mut().zip(err.0) {
                *verdict = e <= delta;
            }
        }
        Ok(())
    }
}

impl<const N: usize, const M: usize> std::fmt::Debug for FleetBatch<N, M> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FleetBatch")
            .field("n", &N)
            .field("m", &M)
            .field("len", &self.len)
            .field("model", &self.model.name())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{models, KalmanFilter};

    fn cv2() -> StateModel {
        models::constant_velocity(1.0, 0.05, 0.1)
    }

    /// A deterministic pseudo-measurement stream per lane.
    fn z_at(lane: usize, t: usize) -> f64 {
        ((t as f64) * 0.13 + lane as f64).sin() * 2.0 + (t as f64 * 0.011).cos()
    }

    #[test]
    fn new_rejects_mismatched_dims() {
        assert!(FleetBatch::<2, 1>::new(&cv2()).is_ok());
        assert!(FleetBatch::<4, 1>::new(&cv2()).is_err());
        assert!(FleetBatch::<2, 2>::new(&cv2()).is_err());
    }

    #[test]
    fn batch_stepping_bit_identical_to_scalar_filters() {
        let model = cv2();
        let lanes = 37; // odd, larger than any SIMD width
        let mut batch = FleetBatch::<2, 1>::new(&model).unwrap();
        let mut scalars = Vec::new();
        for lane in 0..lanes {
            let x0 = Vector::from_slice(&[lane as f64 * 0.1, -0.2]);
            let p0 = Matrix::scalar(2, 1.0 + lane as f64 * 0.01);
            batch.push(&x0, &p0, 0).unwrap();
            scalars.push(KalmanFilter::with_covariance(model.clone(), x0, p0).unwrap());
        }
        let delta = 0.5;
        let mut z = vec![0.0; lanes];
        let mut verdicts = vec![false; lanes];
        for t in 0..500 {
            assert_eq!(batch.predict_all(), 0);
            for (lane, kf) in scalars.iter_mut().enumerate() {
                kf.predict().unwrap();
                z[lane] = z_at(lane, t);
            }
            batch
                .suppression_verdicts_into(&z, delta, &mut verdicts)
                .unwrap();
            for (lane, kf) in scalars.iter().enumerate() {
                let err = kf
                    .predicted_measurement()
                    .max_abs_diff(&Vector::from_slice(&[z[lane]]));
                assert_eq!(verdicts[lane], err <= delta, "verdict lane {lane} tick {t}");
            }
            assert_eq!(batch.update_all(&z).unwrap(), 0);
            for (lane, kf) in scalars.iter_mut().enumerate() {
                kf.update(&Vector::from_slice(&[z[lane]])).unwrap();
            }
            if t % 97 == 0 {
                for (lane, kf) in scalars.iter().enumerate() {
                    let (x, p, steps) = batch.lane_state(lane);
                    assert_eq!(steps, kf.steps_since_update());
                    for i in 0..2 {
                        assert_eq!(
                            x[i].to_bits(),
                            kf.state()[i].to_bits(),
                            "x[{i}] lane {lane} tick {t}"
                        );
                        for j in 0..2 {
                            assert_eq!(
                                p.get(i, j).to_bits(),
                                kf.covariance().get(i, j).to_bits(),
                                "P[{i}][{j}] lane {lane} tick {t}"
                            );
                        }
                    }
                }
            }
        }
        // Final states bit-identical.
        for (lane, kf) in scalars.iter().enumerate() {
            let (x, p, _) = batch.lane_state(lane);
            assert_eq!(&x, kf.state(), "final x lane {lane}");
            assert_eq!(&p, kf.covariance(), "final P lane {lane}");
        }
    }

    #[test]
    fn update_lane_matches_scalar_sporadic_syncs() {
        // Predict every tick, update only on scattered ticks — the ingest
        // workload shape.
        let model = cv2();
        let mut batch = FleetBatch::<2, 1>::new(&model).unwrap();
        let x0 = Vector::from_slice(&[0.4, 0.1]);
        let p0 = Matrix::scalar(2, 2.0);
        batch.push(&x0, &p0, 0).unwrap();
        let mut kf = KalmanFilter::with_covariance(model, x0, p0).unwrap();
        for t in 0..300 {
            batch.predict_all();
            kf.predict().unwrap();
            if t % 7 == 3 {
                let z = Vector::from_slice(&[z_at(0, t)]);
                batch.update_lane(0, z.as_slice()).unwrap();
                kf.update(&z).unwrap();
            }
            let (x, p, steps) = batch.lane_state(0);
            assert_eq!(&x, kf.state(), "tick {t}");
            assert_eq!(&p, kf.covariance(), "tick {t}");
            assert_eq!(steps, kf.steps_since_update(), "tick {t}");
        }
    }

    #[test]
    fn set_lane_packed_matches_set_state_packed() {
        let model = cv2();
        let mut batch = FleetBatch::<2, 1>::new(&model).unwrap();
        batch
            .push(&Vector::zeros(2), &Matrix::scalar(2, 1.0), 0)
            .unwrap();
        let mut kf = KalmanFilter::new(model, Vector::zeros(2), 1.0).unwrap();
        batch.predict_all();
        batch.predict_all();
        assert_eq!(batch.steps_since_update(0), 2);
        let x = [3.0, -1.0];
        let p_upper = [0.25, 0.125, 0.5];
        let packed = |v: &'static [f64]| v.iter().copied();
        batch
            .set_lane_packed(0, x.iter().copied(), p_upper.iter().copied())
            .unwrap();
        kf.set_state_packed(x.iter().copied(), p_upper.iter().copied())
            .unwrap();
        let (xs, ps, steps) = batch.lane_state(0);
        assert_eq!(&xs, kf.state());
        assert_eq!(&ps, kf.covariance());
        assert_eq!(ps, Matrix::from_rows(&[&[0.25, 0.125], &[0.125, 0.5]]));
        assert_eq!(steps, 0);
        // Wrong lengths are rejected before anything is written.
        assert!(batch
            .set_lane_packed(0, packed(&[0.0; 3]), packed(&[0.0; 3]))
            .is_err());
        assert!(batch
            .set_lane_packed(0, packed(&[0.0; 2]), packed(&[0.0; 4]))
            .is_err());
        assert_eq!(batch.lane_state(0).0, xs);
    }

    #[test]
    fn push_restores_staleness_and_validates() {
        let model = cv2();
        let mut batch = FleetBatch::<2, 1>::new(&model).unwrap();
        let lane = batch
            .push(&Vector::zeros(2), &Matrix::scalar(2, 1.0), 5)
            .unwrap();
        assert_eq!(batch.steps_since_update(lane), 5);
        assert!(batch
            .push(&Vector::zeros(3), &Matrix::scalar(2, 1.0), 0)
            .is_err());
        assert!(batch
            .push(&Vector::zeros(2), &Matrix::scalar(3, 1.0), 0)
            .is_err());
    }

    #[test]
    fn swap_remove_lane_moves_last_lane_in() {
        let model = cv2();
        let mut batch = FleetBatch::<2, 1>::new(&model).unwrap();
        for lane in 0..4 {
            batch
                .push(
                    &Vector::from_slice(&[lane as f64, 0.0]),
                    &Matrix::scalar(2, 1.0),
                    lane as u64,
                )
                .unwrap();
        }
        // Removing lane 1 moves lane 3 into slot 1.
        assert_eq!(batch.swap_remove_lane(1), Some(3));
        assert_eq!(batch.len(), 3);
        let (x, _, steps) = batch.lane_state(1);
        assert_eq!(x[0], 3.0);
        assert_eq!(steps, 3);
        // Removing the last lane moves nothing.
        assert_eq!(batch.swap_remove_lane(2), None);
        assert_eq!(batch.len(), 2);
    }

    #[test]
    fn nonfinite_lane_detected_and_isolated() {
        let model = cv2();
        let mut batch = FleetBatch::<2, 1>::new(&model).unwrap();
        batch
            .push(&Vector::zeros(2), &Matrix::scalar(2, 1.0), 0)
            .unwrap();
        batch
            .push(
                &Vector::from_slice(&[f64::NAN, 0.0]),
                &Matrix::scalar(2, 1.0),
                0,
            )
            .unwrap();
        batch
            .push(&Vector::zeros(2), &Matrix::scalar(2, 1.0), 0)
            .unwrap();
        assert!(batch.lane_is_finite(0));
        assert!(!batch.lane_is_finite(1));
        assert_eq!(batch.predict_all(), 1);
        // Healthy lanes stay bit-identical to scalar despite the sick lane.
        let mut kf =
            KalmanFilter::with_covariance(model, Vector::zeros(2), Matrix::scalar(2, 1.0)).unwrap();
        kf.predict().unwrap();
        let (x0, _, _) = batch.lane_state(0);
        let (x2, _, _) = batch.lane_state(2);
        assert_eq!(&x0, kf.state());
        assert_eq!(&x2, kf.state());
    }

    #[test]
    fn update_all_rejects_bad_layout_and_preserves_state_on_chol_failure() {
        let model = cv2();
        let mut batch = FleetBatch::<2, 1>::new(&model).unwrap();
        batch
            .push(&Vector::zeros(2), &Matrix::scalar(2, 1.0), 0)
            .unwrap();
        assert!(batch.update_all(&[0.0, 1.0]).is_err()); // wrong length
                                                         // Indefinite S: huge negative R.
        let bad = model
            .with_measurement_noise(Matrix::scalar(1, -100.0))
            .unwrap();
        let mut sick = FleetBatch::<2, 1>::new(&bad).unwrap();
        sick.push(&Vector::zeros(2), &Matrix::scalar(2, 1.0), 0)
            .unwrap();
        sick.predict_all();
        let (x_before, p_before, steps_before) = sick.lane_state(0);
        assert!(sick.update_all(&[0.5]).is_err());
        let (x_after, p_after, steps_after) = sick.lane_state(0);
        assert_eq!(x_before, x_after);
        assert_eq!(p_before, p_after);
        assert_eq!(steps_before, steps_after);
    }

    #[test]
    fn four_state_two_measurement_matches_scalar() {
        // Exercise a (4, 2) shape: constant-velocity in 2D observed in both
        // positions.
        let f = Matrix::from_rows(&[
            &[1.0, 0.0, 1.0, 0.0],
            &[0.0, 1.0, 0.0, 1.0],
            &[0.0, 0.0, 1.0, 0.0],
            &[0.0, 0.0, 0.0, 1.0],
        ]);
        let q = Matrix::scalar(4, 0.01);
        let h = Matrix::from_rows(&[&[1.0, 0.0, 0.0, 0.0], &[0.0, 1.0, 0.0, 0.0]]);
        let r = Matrix::scalar(2, 0.2);
        let model = StateModel::new("cv4", f, q, h, r).unwrap();
        let lanes = 9;
        let mut batch = FleetBatch::<4, 2>::new(&model).unwrap();
        let mut scalars = Vec::new();
        for lane in 0..lanes {
            let x0 = Vector::from_slice(&[lane as f64, -(lane as f64), 0.1, -0.1]);
            let p0 = Matrix::scalar(4, 1.0);
            batch.push(&x0, &p0, 0).unwrap();
            scalars.push(KalmanFilter::with_covariance(model.clone(), x0, p0).unwrap());
        }
        let mut z = vec![0.0; 2 * lanes];
        for t in 0..200 {
            batch.predict_all();
            for (lane, kf) in scalars.iter_mut().enumerate() {
                kf.predict().unwrap();
                z[lane] = z_at(lane, t); // plane 0
                z[lanes + lane] = z_at(lane + 100, t); // plane 1
            }
            batch.update_all(&z).unwrap();
            for (lane, kf) in scalars.iter_mut().enumerate() {
                kf.update(&Vector::from_slice(&[z[lane], z[lanes + lane]]))
                    .unwrap();
            }
        }
        for (lane, kf) in scalars.iter().enumerate() {
            let (x, p, _) = batch.lane_state(lane);
            assert_eq!(&x, kf.state(), "final x lane {lane}");
            assert_eq!(&p, kf.covariance(), "final P lane {lane}");
        }
    }

    fn bits(values: &[f64]) -> Vec<u64> {
        values.iter().map(|v| v.to_bits()).collect()
    }

    /// Steps `lanes` filters of `model` both ways — predict, verdicts, full
    /// update — and holds every lane to its scalar twin, bit for bit, every
    /// tick; nothing may be stored or counted past `lanes`.
    fn assert_lanes_match_scalar<const N: usize, const M: usize>(
        model: &StateModel,
        lanes: usize,
        ticks: usize,
    ) {
        let mut batch = FleetBatch::<N, M>::new(model).unwrap();
        let mut scalars = Vec::new();
        for lane in 0..lanes {
            let mut x0 = Vector::zeros(N);
            x0[0] = lane as f64 * 0.1;
            x0[N - 1] = -0.2;
            let p0 = Matrix::scalar(N, 1.0 + lane as f64 * 0.01);
            batch.push(&x0, &p0, 0).unwrap();
            scalars.push(KalmanFilter::with_covariance(model.clone(), x0, p0).unwrap());
        }
        let mut z = vec![0.0; M * lanes];
        let mut verdicts = vec![false; lanes];
        for t in 0..ticks {
            assert_eq!(batch.predict_all(), 0, "{lanes} lanes tick {t}");
            for (lane, kf) in scalars.iter_mut().enumerate() {
                kf.predict().unwrap();
                for j in 0..M {
                    z[j * lanes + lane] = z_at(lane + 100 * j, t);
                }
            }
            batch
                .suppression_verdicts_into(&z, 0.5, &mut verdicts)
                .unwrap();
            assert_eq!(batch.update_all(&z).unwrap(), 0, "{lanes} lanes tick {t}");
            for (lane, kf) in scalars.iter_mut().enumerate() {
                let zs: Vec<f64> = (0..M).map(|j| z[j * lanes + lane]).collect();
                let zs = Vector::from_slice(&zs);
                assert_eq!(
                    verdicts[lane],
                    kf.innovation_norm(&zs) <= 0.5,
                    "verdict, {lanes} lanes, lane {lane} tick {t}"
                );
                kf.update(&zs).unwrap();
                let (x, p, steps) = batch.lane_state(lane);
                assert_eq!(bits(x.as_slice()), bits(kf.state().as_slice()));
                assert_eq!(bits(p.as_slice()), bits(kf.covariance().as_slice()));
                assert_eq!(steps, kf.steps_since_update());
            }
            let (x_post, p_post) = &batch.posterior;
            for plane in batch.x.iter().chain(&batch.p).chain(x_post).chain(p_post) {
                assert_eq!(plane.len(), lanes);
            }
        }
    }

    #[test]
    fn every_tail_length_matches_scalar() {
        let cv4 = models::constant_velocity_2d(1.0, 0.05, 0.2);
        for lanes in [1, W - 1, W, W + 1, 3 * W + 2] {
            assert_lanes_match_scalar::<2, 1>(&cv2(), lanes, 200);
            assert_lanes_match_scalar::<4, 2>(&cv4, lanes, 200);
        }
    }

    #[test]
    fn chol_failure_in_a_later_chunk_commits_nothing() {
        // S = P₀₀ + 0.1 fails its pivot only in the lanes pushed with a
        // negative covariance: two in the second chunk, one in the third.
        let mut batch = FleetBatch::<2, 1>::new(&cv2()).unwrap();
        let bad = [(W + 1, -1.0), (W + 2, -3.0), (2 * W + 2, -2.0)];
        for lane in 0..3 * W {
            let p00 = bad
                .iter()
                .find(|(l, _)| *l == lane)
                .map_or(1.0, |(_, v)| *v);
            batch
                .push(
                    &Vector::from_slice(&[lane as f64, 0.5]),
                    &Matrix::scalar(2, p00),
                    3,
                )
                .unwrap();
        }
        let before: Vec<_> = (0..batch.len())
            .map(|lane| batch.lane_state(lane))
            .collect();
        match batch.update_all(&[0.3; 3 * W]) {
            // The first bad lane of the first failing chunk: −1 + 0.1.
            Err(FilterError::Linalg(kalstream_linalg::LinalgError::NotPositiveDefinite {
                pivot: 0,
                value,
            })) => assert_eq!(value, -1.0 + 0.1),
            other => panic!("expected a failed pivot, got {other:?}"),
        }
        // The first chunk factored and was computed, but not committed.
        let after: Vec<_> = (0..batch.len())
            .map(|lane| batch.lane_state(lane))
            .collect();
        assert_eq!(before, after);
    }

    #[test]
    fn nonfinite_lane_leaves_chunk_neighbours_bits_alone_and_counts_once() {
        // Lane 1 sits mid-chunk; lane W is alone in a tail chunk that pads
        // itself with copies of it. An all-NaN covariance keeps the sick
        // pack's zero-skip from firing where its healthy neighbours'
        // diagonal covariance holds exact zeros.
        let model = cv2();
        let nan = f64::NAN;
        let mut batch = FleetBatch::<2, 1>::new(&model).unwrap();
        let mut scalars = Vec::new();
        for lane in 0..=W {
            let x0 = Vector::from_slice(&[lane as f64, 0.5]);
            if lane == 1 || lane == W {
                let p0 = Matrix::from_rows(&[&[nan, nan], &[nan, nan]]);
                batch.push(&x0, &p0, 0).unwrap();
            } else {
                let p0 = Matrix::scalar(2, 1.0);
                batch.push(&x0, &p0, 0).unwrap();
                scalars.push((
                    lane,
                    KalmanFilter::with_covariance(model.clone(), x0, p0).unwrap(),
                ));
            }
        }
        for t in 0..50 {
            let z: Vec<f64> = (0..=W).map(|lane| z_at(lane, t)).collect();
            assert_eq!(batch.predict_all(), 2, "tick {t}");
            assert_eq!(batch.update_all(&z).unwrap(), 2, "tick {t}");
            for (lane, kf) in scalars.iter_mut() {
                kf.predict().unwrap();
                kf.update(&Vector::from_slice(&[z[*lane]])).unwrap();
                let (x, p, _) = batch.lane_state(*lane);
                assert_eq!(
                    bits(x.as_slice()),
                    bits(kf.state().as_slice()),
                    "lane {lane} tick {t}"
                );
                assert_eq!(
                    bits(p.as_slice()),
                    bits(kf.covariance().as_slice()),
                    "lane {lane} tick {t}"
                );
            }
        }
    }
}
