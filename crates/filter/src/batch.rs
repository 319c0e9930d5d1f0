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
//! — `F` and `H` are shared by all lanes through the kernel, and every
//! element-wise operation on a pack is one the compiler vectorizes.
//!
//! ## Noise per lane
//!
//! `Q` and `R` are planes like `P`: each lane carries its own, loaded per
//! chunk and handed to the kernel's step ([`StaticKernel::predict_with`],
//! [`StaticKernel::update_state`]). So filters whose models differ only in
//! their noise — adaptive sources each ship their own estimate of it —
//! share one batch. A lane pushed with [`FleetBatch::push`] runs the
//! batch model's `Q`/`R`; [`FleetBatch::push_filter`] and
//! [`FleetBatch::set_lane_filter`] take a filter's own.
//!
//! ## Lanes run the scalar kernel
//!
//! There is no batch arithmetic in this module. [`StaticKernel`]'s step
//! is generic over the width it runs at (`kalstream_linalg::Lane`): a lone
//! [`KalmanFilter`] instantiates it at `f64`, a chunk here at `Pack<W>`.
//! Stepping a lane through [`FleetBatch::predict_all`] /
//! [`FleetBatch::update_all`] is therefore **bit-identical** to stepping a
//! scalar filter of the batch's covariance form through `predict` /
//! `update` with the same inputs — suppression verdicts included, which
//! are pure functions of the (identical) state — because both *are* the
//! same function. The one width-dependent rule, the products' zero-skip,
//! is `Lane::is_zero`, whose docs carry the argument that it changes no
//! bit of a finite lane.
//!
//! A batch of width `N` runs any model of `n ≤ N` states on a kernel from
//! [`StaticKernel::from_matrices_padded`], as a lone filter runs an
//! off-table shape. Its planes hold only the real `n × n` block and every
//! chunk loads the pad as zero packs, exactly as the lone filter zero-pads
//! per step: a stored pad would pick up `NaN · 0` on a diverged lane and
//! outlive a state write, which covers only the real block. Every loop
//! runs to the model's own `n`, exact rows included: compile-time bounds
//! on exact rows measured no faster (EXPERIMENTS.md T5, PR 32 addendum).
//!
//! A lane that leaves finite range ([`FleetBatch::lane_is_finite`]) stays,
//! as a diverged filter keeps its state until a write heals it, and still
//! matches the lone filter bit for bit: no pack operation mixes filters;
//! where predict's zero-skip differs between widths, the extra term is the
//! lane's own `±0.0` times a finite model entry; and
//! [`FleetBatch::update_lane`] runs at `f64` width.
//!
//! [`KalmanFilter`]: crate::KalmanFilter

// Explicit `0..n` index loops are kept: `r` and `c` are the subscripts of
// `x_r` and `P[r][c]`, and each loop indexes a plane list and a pack array
// by the same pair.
#![allow(clippy::needless_range_loop)]

use kalstream_linalg::{CovarianceUpdate, Lane, Matrix, Pack, StaticKernel, Vector};

use crate::{FilterError, KalmanFilter, Result, StateModel};

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

/// [`load`] for each plane of an `n × n` block stored row-major (`P`, `Q`,
/// `R`), zero packs past it in a `K × K` array.
#[inline(always)]
fn load_square<const K: usize>(planes: &[Vec<f64>], n: usize, at: usize) -> [[Pack<W>; K]; K] {
    let mut out = [[Pack([0.0; W]); K]; K];
    for r in 0..n {
        for c in 0..n {
            out[r][c] = load(&planes[r * n + c], at);
        }
    }
    out
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

/// [`store`] for the real `n × n` block of a chunk.
#[inline(always)]
fn store_chunk<const N: usize>(
    x_planes: &mut [Vec<f64>],
    p_planes: &mut [Vec<f64>],
    n: usize,
    at: usize,
    (x, p): &Chunk<N>,
) {
    for r in 0..n {
        store(&mut x_planes[r], at, x[r]);
        for c in 0..n {
            store(&mut p_planes[r * n + c], at, p[r][c]);
        }
    }
}

/// How many of a chunk's first `lanes` lanes hold a non-finite value in
/// the real `n × n` block: `v · 0.0` is `0.0` for finite `v` and NaN
/// otherwise, so one fused sum over the slots decides every lane at once.
#[inline(always)]
fn count_nonfinite<const N: usize>((x, p): &Chunk<N>, n: usize, lanes: usize) -> usize {
    let mut acc = Pack::splat(0.0);
    for r in 0..n {
        acc += x[r] * Pack::splat(0.0);
        for c in 0..n {
            acc += p[r][c] * Pack::splat(0.0);
        }
    }
    acc.0.iter().take(lanes).filter(|a| **a != 0.0).count()
}

/// A structure-of-arrays batch of Kalman filters that share `F`, `H` and a
/// covariance form.
///
/// All lanes share one [`StaticKernel`] (zero-padded when the model has
/// fewer than `N` states); per-lane state, covariance and noise live in
/// columnar planes. See the module docs for the layout and why a lane is
/// bit-identical to a scalar filter.
pub struct FleetBatch<const N: usize, const M: usize> {
    kernel: StaticKernel<N, M>,
    model: StateModel,
    /// The covariance formula every update runs.
    form: CovarianceUpdate,
    len: usize,
    /// State planes, one per real state: `x[r][s]` is lane `s`'s `x_r`.
    x: Vec<Vec<f64>>,
    /// Covariance planes of the real `n × n` block: `p[r * n + c][s]` is
    /// lane `s`'s `P[r][c]`.
    p: Vec<Vec<f64>>,
    /// Process-noise planes, laid out like `p`: lane `s`'s `Q`.
    q: Vec<Vec<f64>>,
    /// Measurement-noise planes: `r[i * M + j][s]` is lane `s`'s `R[i][j]`.
    r: Vec<Vec<f64>>,
    /// Per-lane predict steps since the last measurement update.
    steps_since_update: Vec<u64>,
    /// [`FleetBatch::update_all`]'s posterior until every chunk has
    /// factored: planes shaped like `x` and `p`, fully overwritten before
    /// they are swapped in, carrying nothing between calls.
    posterior: (Vec<Vec<f64>>, Vec<Vec<f64>>),
}

impl<const N: usize, const M: usize> FleetBatch<N, M> {
    /// Creates an empty batch over `model` whose updates run the
    /// covariance formula `form`.
    ///
    /// # Errors
    /// [`FilterError::BadModel`] when the model's measurement dimension is
    /// not `M` or its state dimension is above `N`.
    pub fn new(model: &StateModel, form: CovarianceUpdate) -> Result<Self> {
        let n = model.state_dim();
        if n > N || model.measurement_dim() != M {
            return Err(FilterError::BadModel {
                what: "batch dims",
                expected: (N, M),
                actual: (n, model.measurement_dim()),
            });
        }
        let kernel =
            StaticKernel::<N, M>::from_matrices_padded(model.f(), model.q(), model.h(), model.r())?;
        let planes = |count: usize| -> Vec<Vec<f64>> { vec![Vec::new(); count] };
        Ok(FleetBatch {
            kernel,
            model: model.clone(),
            form,
            len: 0,
            x: planes(n),
            p: planes(n * n),
            q: planes(n * n),
            r: planes(M * M),
            steps_since_update: Vec::new(),
            posterior: (planes(n), planes(n * n)),
        })
    }

    /// The model the batch was built for: its `F` and `H` are every
    /// lane's, its `Q` and `R` those of lanes added by [`FleetBatch::push`].
    pub fn model(&self) -> &StateModel {
        &self.model
    }

    /// Whether a filter running `model` in the covariance form `form` can
    /// step on this batch's lanes: the same form, and `F` and `H` equal bit
    /// for bit (`Q` and `R` are per lane).
    pub fn runs(&self, model: &StateModel, form: CovarianceUpdate) -> bool {
        let same = |a: &Matrix, b: &Matrix| {
            a.shape() == b.shape()
                && a.as_slice()
                    .iter()
                    .zip(b.as_slice())
                    .all(|(a, b)| a.to_bits() == b.to_bits())
        };
        form == self.form && same(model.f(), self.model.f()) && same(model.h(), self.model.h())
    }

    /// The covariance formula every update runs.
    pub fn covariance_update(&self) -> CovarianceUpdate {
        self.form
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
        let (q, r) = (self.model.q().clone(), self.model.r().clone());
        self.push_lane(x0, p0, steps_since_update, &q, &r)
    }

    /// Appends a lane seeded from `filter` — its state, covariance,
    /// staleness and its model's `Q` and `R` — and returns its index. The
    /// lane steps bit for bit as `filter` would when
    /// [`FleetBatch::runs`] holds for the filter's model and form, which
    /// the caller keys its batches by.
    ///
    /// # Errors
    /// [`FilterError::BadModel`] on shape mismatch.
    pub fn push_filter(&mut self, filter: &KalmanFilter) -> Result<usize> {
        let model = filter.model();
        self.push_lane(
            filter.state(),
            filter.covariance(),
            filter.steps_since_update(),
            model.q(),
            model.r(),
        )
    }

    fn push_lane(
        &mut self,
        x0: &Vector,
        p0: &Matrix,
        steps_since_update: u64,
        q: &Matrix,
        r: &Matrix,
    ) -> Result<usize> {
        crate::kalman::check_state_shape(self.x.len(), x0, p0)?;
        check_noise_shape::<M>(self.x.len(), q, r)?;
        let push = |planes: &mut [Vec<f64>], values: &[f64]| {
            for (plane, v) in planes.iter_mut().zip(values) {
                plane.push(*v);
            }
        };
        push(&mut self.x, x0.as_slice());
        push(&mut self.p, p0.as_slice());
        push(&mut self.q, q.as_slice());
        push(&mut self.r, r.as_slice());
        self.steps_since_update.push(steps_since_update);
        self.len += 1;
        Ok(self.len - 1)
    }

    /// Rewrites lane `lane` from `filter` in place — state, covariance,
    /// staleness, `Q` and `R` — as [`FleetBatch::push_filter`] would seed
    /// it: a filter replaced by one that keeps `F`, `H` and the form stays
    /// on its lane.
    ///
    /// # Errors
    /// [`FilterError::BadModel`] on shape mismatch (the lane is untouched).
    pub fn set_lane_filter(&mut self, lane: usize, filter: &KalmanFilter) -> Result<()> {
        let model = filter.model();
        let (x, p) = (filter.state(), filter.covariance());
        crate::kalman::check_state_shape(self.x.len(), x, p)?;
        check_noise_shape::<M>(self.x.len(), model.q(), model.r())?;
        let set = |planes: &mut [Vec<f64>], values: &[f64]| {
            for (plane, v) in planes.iter_mut().zip(values) {
                plane[lane] = *v;
            }
        };
        set(&mut self.x, x.as_slice());
        set(&mut self.p, p.as_slice());
        set(&mut self.q, model.q().as_slice());
        set(&mut self.r, model.r().as_slice());
        self.steps_since_update[lane] = filter.steps_since_update();
        Ok(())
    }

    /// Lane `lane`'s state and covariance as the scalar kernel takes them,
    /// zero past the real block.
    #[inline(always)]
    fn lane(&self, lane: usize) -> ([f64; N], [[f64; N]; N]) {
        let n = self.x.len();
        let (mut x, mut p) = ([0.0; N], [[0.0; N]; N]);
        for r in 0..n {
            x[r] = self.x[r][lane];
            for c in 0..n {
                p[r][c] = self.p[r * n + c][lane];
            }
        }
        (x, p)
    }

    /// Lane `lane`'s measurement noise as the scalar kernel takes it.
    #[inline(always)]
    fn lane_r(&self, lane: usize) -> [[f64; M]; M] {
        let mut r = [[0.0; M]; M];
        for i in 0..M {
            for j in 0..M {
                r[i][j] = self.r[i * M + j][lane];
            }
        }
        r
    }

    /// Writes the real block of kernel arrays to lane `lane`.
    #[inline(always)]
    fn set_lane(&mut self, lane: usize, x: &[f64; N], p: &[[f64; N]; N]) {
        let n = self.x.len();
        for r in 0..n {
            self.x[r][lane] = x[r];
            for c in 0..n {
                self.p[r * n + c][lane] = p[r][c];
            }
        }
    }

    /// The state planes of the `W` lanes from `at` (see [`load`] for a
    /// short last chunk), zero packs past the real block.
    #[inline(always)]
    fn chunk_x(&self, at: usize) -> [Pack<W>; N] {
        let mut x = [Pack([0.0; W]); N];
        for r in 0..self.x.len() {
            x[r] = load(&self.x[r], at);
        }
        x
    }

    /// State and covariance of the `W` lanes from `at`, zero packs past
    /// the real block.
    #[inline(always)]
    fn chunk(&self, at: usize) -> Chunk<N> {
        (self.chunk_x(at), load_square(&self.p, self.x.len(), at))
    }

    /// Lane `lane` as the lone filter it steps like, its model named
    /// `name`: the batch's `F`, `H` and covariance form with the lane's own
    /// `Q`, `R`, state, covariance and staleness, gathered back into values
    /// of the model's own shape — what a lane hands back when its stream
    /// leaves the batch.
    pub fn lane_filter(&self, lane: usize, name: impl Into<std::sync::Arc<str>>) -> KalmanFilter {
        let n = self.x.len();
        let gather = |planes: &[Vec<f64>], rows, cols| {
            let mut m = Matrix::zeros(rows, cols);
            for (v, plane) in m.as_mut_slice().iter_mut().zip(planes) {
                *v = plane[lane];
            }
            m
        };
        let (f, h) = (self.model.f().clone(), self.model.h().clone());
        let model = StateModel::new(name, f, gather(&self.q, n, n), h, gather(&self.r, M, M))
            .expect("lane noise fits the batch model");
        let x = Vector::from_slice(gather(&self.x, n, 1).as_slice());
        let p = gather(&self.p, n, n);
        let mut filter = KalmanFilter::with_covariance(model, x.clone(), p.clone())
            .expect("lane state fits the batch model");
        filter.set_covariance_update(self.form);
        let steps = self.steps_since_update[lane];
        filter.restore(x, p, steps).expect("shapes checked above");
        filter
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
        let n = self.x.len();
        crate::kalman::check_packed_lens(n, x.len(), p_upper.len())?;
        let (mut xs, mut ps) = ([0.0; N], [[0.0; N]; N]);
        for (dst, v) in xs.iter_mut().zip(x) {
            *dst = v;
        }
        let mut p_upper = p_upper;
        for r in 0..n {
            for c in r..n {
                ps[r][c] = p_upper.next().expect("length checked above");
                ps[c][r] = ps[r][c];
            }
        }
        self.set_lane(lane, &xs, &ps);
        self.steps_since_update[lane] = 0;
        Ok(())
    }

    /// Removes lane `lane` in O(planes): the **last** lane moves into its
    /// slot (`Vec::swap_remove` per plane). Returns the index of the lane
    /// that moved (the old last lane), or `None` when `lane` was the last —
    /// the caller updates its lane bookkeeping accordingly. Used by the
    /// ingest lanes to move a stream to the group of its new model.
    pub fn swap_remove_lane(&mut self, lane: usize) -> Option<usize> {
        let planes = [&mut self.x, &mut self.p, &mut self.q, &mut self.r];
        for plane in planes.into_iter().flatten() {
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
    /// in place).
    ///
    /// [`KalmanFilter::predict`]: crate::KalmanFilter::predict
    pub fn predict_all(&mut self) -> usize {
        let n = self.x.len();
        let mut nonfinite = 0;
        for at in (0..self.len).step_by(W) {
            let mut chunk = self.chunk(at);
            let q = load_square(&self.q, n, at);
            self.kernel.predict_with(&mut chunk.0, &mut chunk.1, &q);
            nonfinite += count_nonfinite(&chunk, n, self.len - at);
            store_chunk(&mut self.x, &mut self.p, n, at, &chunk);
        }
        for steps in self.steps_since_update.iter_mut() {
            *steps += 1;
        }
        nonfinite
    }

    /// Measurement update for every lane with observations `z` in
    /// plane-major layout (`z[j * len + s]` is lane `s`'s `z_j`), per-lane
    /// bit-identical to [`KalmanFilter::update`].
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
        let (n, len) = (self.x.len(), self.len);
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
            let r = load_square(&self.r, M, at);
            self.kernel
                .update_state(&mut chunk.0, &mut chunk.1, &zs, &r, self.form)?;
            nonfinite += count_nonfinite(&chunk, n, len - at);
            let (x_post, p_post) = &mut self.posterior;
            store_chunk(x_post, p_post, n, at, &chunk);
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
        self.kernel
            .update_state(&mut x, &mut p, &zs, &self.lane_r(lane), self.form)?;
        self.set_lane(lane, &x, &p);
        self.steps_since_update[lane] = 0;
        if !self.x.iter().all(|plane| plane[lane].is_finite()) {
            return Err(FilterError::Diverged { what: "state" });
        }
        if !self.p.iter().all(|plane| plane[lane].is_finite()) {
            return Err(FilterError::Diverged { what: "covariance" });
        }
        Ok(())
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
            let zs = load_measurements(z, len, at);
            let err = self.kernel.innovation_norm(&self.chunk_x(at), &zs);
            for (verdict, e) in out[at..].iter_mut().zip(err.0) {
                *verdict = e <= delta;
            }
        }
        Ok(())
    }
}

/// The shape checks of a lane's noise: `Q` is `n × n`, `R` is `M × M`.
fn check_noise_shape<const M: usize>(n: usize, q: &Matrix, r: &Matrix) -> Result<()> {
    for (what, mat, dim) in [("lane Q", q, n), ("lane R", r, M)] {
        if mat.shape() != (dim, dim) {
            return Err(FilterError::BadModel {
                what,
                expected: (dim, dim),
                actual: mat.shape(),
            });
        }
    }
    Ok(())
}

impl<const N: usize, const M: usize> std::fmt::Debug for FleetBatch<N, M> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FleetBatch")
            .field("n", &self.x.len())
            .field("width", &N)
            .field("m", &M)
            .field("len", &self.len)
            .field("model", &self.model.name())
            .field("form", &self.form)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{models, KalmanFilter};

    const JOSEPH: CovarianceUpdate = CovarianceUpdate::Joseph;

    /// Lane `lane`'s state, covariance and staleness, read off its filter.
    fn lane_state<const N: usize, const M: usize>(
        batch: &FleetBatch<N, M>,
        lane: usize,
    ) -> (Vector, Matrix, u64) {
        let kf = batch.lane_filter(lane, "lane");
        let (x, p) = (kf.state().clone(), kf.covariance().clone());
        (x, p, kf.steps_since_update())
    }

    fn cv2() -> StateModel {
        models::constant_velocity(1.0, 0.05, 0.1)
    }

    /// A deterministic pseudo-measurement stream per lane.
    fn z_at(lane: usize, t: usize) -> f64 {
        ((t as f64) * 0.13 + lane as f64).sin() * 2.0 + (t as f64 * 0.011).cos()
    }

    #[test]
    fn new_rejects_mismatched_dims() {
        assert!(FleetBatch::<2, 1>::new(&cv2(), JOSEPH).is_ok());
        // A wider row runs the 2-state model zero-padded.
        assert!(FleetBatch::<4, 1>::new(&cv2(), JOSEPH).is_ok());
        assert!(FleetBatch::<1, 1>::new(&cv2(), JOSEPH).is_err());
        assert!(FleetBatch::<2, 2>::new(&cv2(), JOSEPH).is_err());
    }

    #[test]
    fn batch_stepping_bit_identical_to_scalar_filters() {
        let model = cv2();
        let lanes = 37; // odd, larger than any SIMD width
        let mut batch = FleetBatch::<2, 1>::new(&model, JOSEPH).unwrap();
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
                    let (x, p, steps) = lane_state(&batch, lane);
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
            let (x, p, _) = lane_state(&batch, lane);
            assert_eq!(&x, kf.state(), "final x lane {lane}");
            assert_eq!(&p, kf.covariance(), "final P lane {lane}");
        }
    }

    #[test]
    fn update_lane_matches_scalar_sporadic_syncs() {
        // Predict every tick, update only on scattered ticks — the ingest
        // workload shape.
        let model = cv2();
        let mut batch = FleetBatch::<2, 1>::new(&model, JOSEPH).unwrap();
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
            let (x, p, steps) = lane_state(&batch, 0);
            assert_eq!(&x, kf.state(), "tick {t}");
            assert_eq!(&p, kf.covariance(), "tick {t}");
            assert_eq!(steps, kf.steps_since_update(), "tick {t}");
        }
    }

    #[test]
    fn set_lane_packed_matches_set_state_packed() {
        let model = cv2();
        let mut batch = FleetBatch::<2, 1>::new(&model, JOSEPH).unwrap();
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
        let (xs, ps, steps) = lane_state(&batch, 0);
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
        assert_eq!(lane_state(&batch, 0).0, xs);
    }

    #[test]
    fn lanes_with_their_own_noise_match_their_filters() {
        // One constant-velocity batch (Joseph and Simple) whose lanes carry
        // four different `Q`/`R` pairs, pushed from filters and, for lane 1,
        // rewritten mid-run from a filter with yet another pair: every lane
        // stays bit-identical to its lone filter through whole-fleet and
        // per-lane updates.
        let noise = [(0.05, 0.1), (0.2, 0.7), (0.011, 3.0), (1.5, 0.02)];
        for form in [JOSEPH, CovarianceUpdate::Simple] {
            let mut batch = FleetBatch::<2, 1>::new(&cv2(), form).unwrap();
            let mut scalars: Vec<KalmanFilter> = noise
                .iter()
                .enumerate()
                .map(|(lane, &(q, r))| {
                    let model = models::constant_velocity(1.0, q, r);
                    let x0 = Vector::from_slice(&[lane as f64, -0.3]);
                    let mut kf = KalmanFilter::new(model, x0, 1.0 + lane as f64).unwrap();
                    kf.set_covariance_update(form);
                    assert!(batch.runs(kf.model(), form));
                    assert_eq!(batch.push_filter(&kf).unwrap(), lane);
                    kf
                })
                .collect();
            let mut z = vec![0.0; noise.len()];
            for t in 0..120 {
                batch.predict_all();
                for (lane, kf) in scalars.iter_mut().enumerate() {
                    kf.predict().unwrap();
                    z[lane] = z_at(lane, t);
                }
                if t % 3 == 0 {
                    batch.update_all(&z).unwrap();
                    for (lane, kf) in scalars.iter_mut().enumerate() {
                        kf.update(&Vector::from_slice(&[z[lane]])).unwrap();
                    }
                } else {
                    batch.update_lane(t % 4, &z[t % 4..=t % 4]).unwrap();
                    scalars[t % 4]
                        .update(&Vector::from_slice(&[z[t % 4]]))
                        .unwrap();
                }
                if t == 50 {
                    let model = models::constant_velocity(1.0, 0.6, 0.45);
                    let mut kf =
                        KalmanFilter::new(model, Vector::from_slice(&[0.2, 0.1]), 2.0).unwrap();
                    kf.set_covariance_update(form);
                    batch.set_lane_filter(1, &kf).unwrap();
                    scalars[1] = kf;
                }
                for (lane, kf) in scalars.iter().enumerate() {
                    let (x, p, steps) = lane_state(&batch, lane);
                    assert_eq!(bits(x.as_slice()), bits(kf.state().as_slice()), "{t}");
                    assert_eq!(bits(p.as_slice()), bits(kf.covariance().as_slice()), "{t}");
                    assert_eq!(steps, kf.steps_since_update());
                }
            }
            // Other dynamics or another form do not run on these lanes.
            let other = if form == JOSEPH {
                CovarianceUpdate::Simple
            } else {
                JOSEPH
            };
            assert!(!batch.runs(&cv2(), other));
            assert!(!batch.runs(&models::constant_velocity(2.0, 0.05, 0.1), form));
        }
    }

    #[test]
    fn push_restores_staleness_and_validates() {
        let model = cv2();
        let mut batch = FleetBatch::<2, 1>::new(&model, JOSEPH).unwrap();
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
        let mut batch = FleetBatch::<2, 1>::new(&model, JOSEPH).unwrap();
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
        let (x, _, steps) = lane_state(&batch, 1);
        assert_eq!(x[0], 3.0);
        assert_eq!(steps, 3);
        // Removing the last lane moves nothing.
        assert_eq!(batch.swap_remove_lane(2), None);
        assert_eq!(batch.len(), 2);
    }

    #[test]
    fn nonfinite_lane_detected_and_isolated() {
        let model = cv2();
        let mut batch = FleetBatch::<2, 1>::new(&model, JOSEPH).unwrap();
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
        let (x0, _, _) = lane_state(&batch, 0);
        let (x2, _, _) = lane_state(&batch, 2);
        assert_eq!(&x0, kf.state());
        assert_eq!(&x2, kf.state());
    }

    #[test]
    fn update_all_rejects_bad_layout_and_preserves_state_on_chol_failure() {
        let model = cv2();
        let mut batch = FleetBatch::<2, 1>::new(&model, JOSEPH).unwrap();
        batch
            .push(&Vector::zeros(2), &Matrix::scalar(2, 1.0), 0)
            .unwrap();
        assert!(batch.update_all(&[0.0, 1.0]).is_err()); // wrong length
                                                         // Indefinite S: huge negative R.
        let bad = model
            .with_measurement_noise(Matrix::scalar(1, -100.0))
            .unwrap();
        let mut sick = FleetBatch::<2, 1>::new(&bad, JOSEPH).unwrap();
        sick.push(&Vector::zeros(2), &Matrix::scalar(2, 1.0), 0)
            .unwrap();
        sick.predict_all();
        let (x_before, p_before, steps_before) = lane_state(&sick, 0);
        assert!(sick.update_all(&[0.5]).is_err());
        let (x_after, p_after, steps_after) = lane_state(&sick, 0);
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
        let mut batch = FleetBatch::<4, 2>::new(&model, JOSEPH).unwrap();
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
            let (x, p, _) = lane_state(&batch, lane);
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
        form: CovarianceUpdate,
        lanes: usize,
        ticks: usize,
    ) {
        let n = model.state_dim();
        let mut batch = FleetBatch::<N, M>::new(model, form).unwrap();
        let mut scalars = Vec::new();
        for lane in 0..lanes {
            let mut x0 = Vector::zeros(n);
            x0[0] = lane as f64 * 0.1;
            x0[n - 1] = -0.2;
            let p0 = Matrix::scalar(n, 1.0 + lane as f64 * 0.01);
            batch.push(&x0, &p0, 0).unwrap();
            let mut kf = KalmanFilter::with_covariance(model.clone(), x0, p0).unwrap();
            kf.set_covariance_update(form);
            scalars.push(kf);
        }
        // Only the real block is stored, whatever the row's width.
        assert_eq!((batch.x.len(), batch.p.len()), (n, n * n));
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
                let (x, p, steps) = lane_state(&batch, lane);
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
        let ca3 = models::constant_acceleration(1.0, 0.02, 0.1);
        for lanes in [1, W - 1, W, W + 1, 3 * W + 2] {
            assert_lanes_match_scalar::<2, 1>(&cv2(), JOSEPH, lanes, 200);
            assert_lanes_match_scalar::<4, 2>(&cv4, JOSEPH, lanes, 200);
            // Padded rows, whole-fleet updates in both forms.
            for form in [JOSEPH, CovarianceUpdate::Simple] {
                assert_lanes_match_scalar::<4, 1>(&ca3, form, lanes, 200);
                assert_lanes_match_scalar::<8, 2>(&cv4, form, lanes, 200);
            }
        }
    }

    #[test]
    fn chol_failure_in_a_later_chunk_commits_nothing() {
        // S = P₀₀ + 0.1 fails its pivot only in the lanes pushed with a
        // negative covariance: two in the second chunk, one in the third.
        let mut batch = FleetBatch::<2, 1>::new(&cv2(), JOSEPH).unwrap();
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
            .map(|lane| lane_state(&batch, lane))
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
            .map(|lane| lane_state(&batch, lane))
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
        let mut batch = FleetBatch::<2, 1>::new(&model, JOSEPH).unwrap();
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
                let (x, p, _) = lane_state(&batch, *lane);
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
