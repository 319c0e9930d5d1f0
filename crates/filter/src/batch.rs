//! Structure-of-arrays fleet stepping: thousands of same-model filters
//! advanced in tight columnar loops.
//!
//! The scalar path ([`KalmanFilter`]) steps one stream at a time, its
//! state loaded from and stored back to `Vector`/`Matrix` values around
//! every step — fine for a handful of streams, but at fleet scale the
//! per-stream dispatch and the tiny (n ≤ 8) loop bodies leave the SIMD
//! units idle. [`FleetBatch`] transposes
//! the layout: each scalar *slot* of the state (`x[r]`, `P[r][c]`, …)
//! becomes a contiguous **plane** of `len` lane values, and every filter
//! operation becomes a handful of plane-wise fused loops the compiler
//! auto-vectorizes across lanes. The model matrices are shared by all lanes
//! through a [`StaticKernel`], so per-lane work is pure arithmetic.
//!
//! ## Equivalence contract
//!
//! For lanes whose state stays finite, stepping a lane through
//! [`FleetBatch::predict_all`] / [`FleetBatch::update_all`] is
//! **bit-identical** to stepping a scalar [`KalmanFilter`] (Joseph form)
//! through `predict` / `update` with the same inputs — including suppression
//! verdicts, which are pure functions of the (identical) state. Two facts
//! make this work:
//!
//! 1. every plane loop performs the scalar kernel's floating-point
//!    operations in the scalar kernel's order, per lane;
//! 2. the scalar kernels' *zero-skip* (`matmul_into` skips `a == 0.0`
//!    terms) is kept where the skipped factor comes from a **shared** model
//!    matrix (uniform across lanes) and dropped where it is per-lane data.
//!    Dropping it is bit-neutral for finite data: a skipped term is
//!    `±0.0 · b = ±0.0`, accumulators here are never `-0.0` (they start at
//!    `+0.0`, and IEEE-754 round-to-nearest addition never produces `-0.0`
//!    from inputs that aren't both negative-signed), and `acc + ±0.0 == acc`
//!    bit-for-bit for every such accumulator value.
//!
//! A lane that leaves finite range (counted by [`FleetBatch::predict_all`],
//! flagged by [`FleetBatch::lane_is_finite`]) is outside the contract — the
//! dispatcher demotes such lanes back to the scalar path, which owns the
//! divergence bookkeeping.

// Explicit `0..N` index loops are kept throughout: each loop transcribes a
// scalar kernel whose operation order is the bit-identity contract, and the
// indices mirror that kernel's subscripts.
#![allow(clippy::needless_range_loop)]

use kalstream_linalg::{Matrix, StaticKernel, Vector};

use crate::{FilterError, Result, StateModel};

/// Reusable plane-sized scratch for [`FleetBatch`] stepping.
///
/// Like [`crate::KalmanScratch`], every buffer is fully overwritten before
/// it is read; contents never carry information between ticks.
struct BatchScratch<const N: usize, const M: usize> {
    /// Predicted state planes (`N`).
    xt: Vec<Vec<f64>>,
    /// Shared `N × N`-plane intermediate (`F P`, `(I−KH) P`).
    tmp: Vec<Vec<f64>>,
    /// Predicted / posterior covariance planes (`N · N`).
    pt: Vec<Vec<f64>>,
    /// `H P` planes (`M · N`), reused as the gain solve's right-hand side.
    hp: Vec<Vec<f64>>,
    /// Innovation planes (`M`).
    innovation: Vec<Vec<f64>>,
    /// Innovation covariance planes (`M · M`).
    s: Vec<Vec<f64>>,
    /// Cholesky factor planes (`M · M`).
    l: Vec<Vec<f64>>,
    /// Per-lane pivot tolerance.
    tol: Vec<f64>,
    /// Substitution column planes (`M`).
    col: Vec<Vec<f64>>,
    /// `S⁻¹ H P` planes (`M · N`); the gain `K` is its transpose view.
    s_inv_hp: Vec<Vec<f64>>,
    /// `K H` planes (`N · N`).
    kh: Vec<Vec<f64>>,
    /// `K R` planes (`N · M`).
    kr: Vec<Vec<f64>>,
    /// `K R Kᵀ` planes (`N · N`).
    krk: Vec<Vec<f64>>,
    /// Posterior state planes (`N`).
    x_new: Vec<Vec<f64>>,
}

impl<const N: usize, const M: usize> BatchScratch<N, M> {
    fn new() -> Self {
        let planes = |count: usize| (0..count).map(|_| Vec::new()).collect();
        BatchScratch {
            xt: planes(N),
            tmp: planes(N * N),
            pt: planes(N * N),
            hp: planes(M * N),
            innovation: planes(M),
            s: planes(M * M),
            l: planes(M * M),
            tol: Vec::new(),
            col: planes(M),
            s_inv_hp: planes(M * N),
            kh: planes(N * N),
            kr: planes(N * M),
            krk: planes(N * N),
            x_new: planes(N),
        }
    }
}

/// Zeroes every plane in `planes` to `len` lanes.
fn reset_planes(planes: &mut [Vec<f64>], len: usize) {
    for plane in planes.iter_mut() {
        plane.clear();
        plane.resize(len, 0.0);
    }
}

/// A structure-of-arrays batch of same-model Joseph-form Kalman filters.
///
/// All lanes share one [`StateModel`] (and hence one [`StaticKernel`]);
/// per-lane state lives in columnar planes. See the module docs for the
/// layout and the bit-equivalence contract with the scalar path.
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
    scratch: BatchScratch<N, M>,
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
        Ok(FleetBatch {
            kernel,
            model: model.clone(),
            len: 0,
            x: (0..N).map(|_| Vec::new()).collect(),
            p: (0..N * N).map(|_| Vec::new()).collect(),
            steps_since_update: Vec::new(),
            scratch: BatchScratch::new(),
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

    /// Lane `lane`'s state, covariance and staleness, gathered back into
    /// row-major dynamic values — the handoff payload for demoting a lane to
    /// the scalar path.
    pub fn lane_state(&self, lane: usize) -> (Vector, Matrix, u64) {
        let mut x = Vector::zeros(N);
        for r in 0..N {
            x[r] = self.x[r][lane];
        }
        let mut p = Matrix::zeros(N, N);
        for r in 0..N {
            for c in 0..N {
                p.set(r, c, self.p[r * N + c][lane]);
            }
        }
        (x, p, self.steps_since_update[lane])
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
        let len = self.len;
        let f = self.kernel.f();
        let q = self.kernel.q();
        let sc = &mut self.scratch;
        // x ← F x: plane accumulation in `mul_vec_into` order (k ascending,
        // no zero-skip).
        reset_planes(&mut sc.xt, len);
        for r in 0..N {
            let out = &mut sc.xt[r];
            for (k, x_plane) in self.x.iter().enumerate() {
                let a = f[r][k];
                for (o, &v) in out.iter_mut().zip(x_plane.iter()) {
                    *o += a * v;
                }
            }
        }
        for r in 0..N {
            std::mem::swap(&mut self.x[r], &mut sc.xt[r]);
        }
        // tmp ← F P: `matmul_into` order with its zero-skip kept (F is
        // shared across lanes, so the skip is uniform).
        reset_planes(&mut sc.tmp, len);
        for r in 0..N {
            for k in 0..N {
                let a = f[r][k];
                if a == 0.0 {
                    continue;
                }
                for c in 0..N {
                    let out = &mut sc.tmp[r * N + c];
                    let rhs = &self.p[k * N + c];
                    for (o, &v) in out.iter_mut().zip(rhs.iter()) {
                        *o += a * v;
                    }
                }
            }
        }
        // pt ← tmp Fᵀ: `matmul_transpose_into` order; the scalar skip is on
        // per-lane `tmp` values, dropped here (bit-neutral for finite data —
        // see module docs).
        reset_planes(&mut sc.pt, len);
        for r in 0..N {
            for k in 0..N {
                let tmp_plane = &sc.tmp[r * N + k];
                for c in 0..N {
                    let b = f[c][k];
                    let out = &mut sc.pt[r * N + c];
                    for (o, &v) in out.iter_mut().zip(tmp_plane.iter()) {
                        *o += v * b;
                    }
                }
            }
        }
        // P ← pt + Q, then symmetrize (averaging matches `symmetrize_mut`).
        for r in 0..N {
            for c in 0..N {
                let qv = q[r][c];
                let src = &sc.pt[r * N + c];
                let dst = &mut self.p[r * N + c];
                for (d, &v) in dst.iter_mut().zip(src.iter()) {
                    *d = v + qv;
                }
            }
        }
        self.symmetrize_p();
        for steps in self.steps_since_update.iter_mut() {
            *steps += 1;
        }
        self.count_nonfinite()
    }

    /// Joseph-form measurement update for every lane with observations `z`
    /// in plane-major layout (`z[j * len + s]` is lane `s`'s `z_j`),
    /// per-lane bit-identical to [`KalmanFilter::update`].
    ///
    /// All-or-nothing: results are computed into scratch and only written
    /// back when every lane's innovation covariance factors, so an `Err`
    /// leaves the batch untouched. (The sporadic-update ingest path uses
    /// [`FleetBatch::update_lane`] instead, which fails per lane exactly
    /// like the scalar filter.) Returns the number of non-finite lanes
    /// after the update, like [`FleetBatch::predict_all`].
    ///
    /// # Errors
    /// * [`FilterError::BadMeasurement`] when `z.len() != M · len`.
    /// * [`FilterError::Linalg`] naming the first lane whose `S` is not
    ///   positive definite.
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
        let h = self.kernel.h();
        let r_mat = self.kernel.r();
        let sc = &mut self.scratch;
        // Innovation ν = z − H x (predicted in `mul_vec_into` order).
        reset_planes(&mut sc.innovation, len);
        for j in 0..M {
            let out = &mut sc.innovation[j];
            for (k, x_plane) in self.x.iter().enumerate() {
                let a = h[j][k];
                for (o, &v) in out.iter_mut().zip(x_plane.iter()) {
                    *o += a * v;
                }
            }
            let zs = &z[j * len..(j + 1) * len];
            for (o, &zv) in out.iter_mut().zip(zs.iter()) {
                *o = zv - *o;
            }
        }
        // hp ← H P (`matmul_into`, shared-H zero-skip kept). The scalar path
        // computes H·P twice (once inside the S sandwich, once for the gain);
        // both runs are the same operations, so one plane pass serves both.
        reset_planes(&mut sc.hp, len);
        for j in 0..M {
            for k in 0..N {
                let a = h[j][k];
                if a == 0.0 {
                    continue;
                }
                for c in 0..N {
                    let out = &mut sc.hp[j * N + c];
                    let rhs = &self.p[k * N + c];
                    for (o, &v) in out.iter_mut().zip(rhs.iter()) {
                        *o += a * v;
                    }
                }
            }
        }
        // S ← hp Hᵀ + R, symmetrized (per-lane skip dropped).
        reset_planes(&mut sc.s, len);
        for i in 0..M {
            for k in 0..N {
                let hp_plane = &sc.hp[i * N + k];
                for j in 0..M {
                    let b = h[j][k];
                    let out = &mut sc.s[i * M + j];
                    for (o, &v) in out.iter_mut().zip(hp_plane.iter()) {
                        *o += v * b;
                    }
                }
            }
        }
        for i in 0..M {
            for j in 0..M {
                let rv = r_mat[i][j];
                for o in sc.s[i * M + j].iter_mut() {
                    *o += rv;
                }
            }
        }
        for i in 0..M {
            for j in (i + 1)..M {
                let (lo, hi) = (i * M + j, j * M + i);
                for s_idx in 0..len {
                    let avg = 0.5 * (sc.s[lo][s_idx] + sc.s[hi][s_idx]);
                    sc.s[lo][s_idx] = avg;
                    sc.s[hi][s_idx] = avg;
                }
            }
        }
        // Per-lane Cholesky of S, vectorized across lanes; tolerance rule
        // and failure predicate (`d <= tol`) match `Cholesky::factor_into`.
        sc.tol.clear();
        sc.tol.resize(len, 0.0);
        for plane in sc.s.iter() {
            for (t, &v) in sc.tol.iter_mut().zip(plane.iter()) {
                *t = t.max(v.abs());
            }
        }
        for t in sc.tol.iter_mut() {
            *t = 1e-13 * t.max(1.0);
        }
        reset_planes(&mut sc.l, len);
        for j in 0..M {
            // d = S[j][j] − Σ_{k<j} L[j][k]², reusing the diagonal plane of L
            // as the accumulator.
            let (before, rest) = sc.l.split_at_mut(j * M + j);
            let d_plane = &mut rest[0];
            d_plane.copy_from_slice(&sc.s[j * M + j]);
            for k in 0..j {
                let ljk = &before[j * M + k];
                for (d, &l) in d_plane.iter_mut().zip(ljk.iter()) {
                    *d -= l * l;
                }
            }
            if let Some(lane) = d_plane
                .iter()
                .zip(sc.tol.iter())
                .position(|(&d, &tol)| d <= tol)
            {
                return Err(FilterError::Linalg(
                    kalstream_linalg::LinalgError::NotPositiveDefinite {
                        pivot: j,
                        value: d_plane[lane],
                    },
                ));
            }
            for d in d_plane.iter_mut() {
                *d = d.sqrt();
            }
            for i in (j + 1)..M {
                let (head, tail) = sc.l.split_at_mut(i * M + j);
                let v_plane = &mut tail[0];
                v_plane.copy_from_slice(&sc.s[i * M + j]);
                for k in 0..j {
                    let lik = &head[i * M + k];
                    let ljk = &head[j * M + k];
                    for ((v, &a), &b) in v_plane.iter_mut().zip(lik.iter()).zip(ljk.iter()) {
                        *v -= a * b;
                    }
                }
                let diag = &head[j * M + j];
                for (v, &d) in v_plane.iter_mut().zip(diag.iter()) {
                    *v /= d;
                }
            }
        }
        // s_inv_hp ← S⁻¹ (H P): per state-column forward/back substitution
        // in `solve_mat_into` order.
        reset_planes(&mut sc.s_inv_hp, len);
        for c in 0..N {
            for j in 0..M {
                sc.col[j].clear();
                sc.col[j].extend_from_slice(&sc.hp[j * N + c]);
            }
            // Forward: x[i] = (x[i] − Σ_{k<i} L[i][k] x[k]) / L[i][i].
            for i in 0..M {
                let (head, rest) = sc.col.split_at_mut(i);
                let xi = &mut rest[0];
                for (k, xk) in head.iter().enumerate() {
                    let lik = &sc.l[i * M + k];
                    for ((x, &l), &v) in xi.iter_mut().zip(lik.iter()).zip(xk.iter()) {
                        *x -= l * v;
                    }
                }
                let diag = &sc.l[i * M + i];
                for (x, &d) in xi.iter_mut().zip(diag.iter()) {
                    *x /= d;
                }
            }
            // Back: x[i] = (x[i] − Σ_{k>i} L[k][i] x[k]) / L[i][i].
            for i in (0..M).rev() {
                let (head, rest) = sc.col.split_at_mut(i + 1);
                let xi = &mut head[i];
                for (off, xk) in rest.iter().enumerate() {
                    let k = i + 1 + off;
                    let lki = &sc.l[k * M + i];
                    for ((x, &l), &v) in xi.iter_mut().zip(lki.iter()).zip(xk.iter()) {
                        *x -= l * v;
                    }
                }
                let diag = &sc.l[i * M + i];
                for (x, &d) in xi.iter_mut().zip(diag.iter()) {
                    *x /= d;
                }
            }
            for j in 0..M {
                sc.s_inv_hp[j * N + c].copy_from_slice(&sc.col[j]);
            }
        }
        // Gain K = (S⁻¹ H P)ᵀ: K[r][j] is the plane s_inv_hp[j * N + r].
        // State: x ← x + K ν (`mul_vec_into` order, j ascending).
        reset_planes(&mut sc.x_new, len);
        for r in 0..N {
            let out = &mut sc.x_new[r];
            for j in 0..M {
                let k_plane = &sc.s_inv_hp[j * N + r];
                let nu = &sc.innovation[j];
                for ((o, &kv), &nv) in out.iter_mut().zip(k_plane.iter()).zip(nu.iter()) {
                    *o += kv * nv;
                }
            }
            let x_plane = &self.x[r];
            for (o, &xv) in out.iter_mut().zip(x_plane.iter()) {
                *o += xv;
            }
        }
        // kh ← K H (per-lane skip dropped).
        reset_planes(&mut sc.kh, len);
        for r in 0..N {
            for j in 0..M {
                let k_plane = &sc.s_inv_hp[j * N + r];
                for c in 0..N {
                    let b = h[j][c];
                    let out = &mut sc.kh[r * N + c];
                    for (o, &v) in out.iter_mut().zip(k_plane.iter()) {
                        *o += v * b;
                    }
                }
            }
        }
        // i_kh ← I − K H, in place (subtraction from the identity matches
        // `resize_identity` + `-=`, preserving the sign of zero).
        for r in 0..N {
            for c in 0..N {
                let id = if r == c { 1.0 } else { 0.0 };
                for o in sc.kh[r * N + c].iter_mut() {
                    *o = id - *o;
                }
            }
        }
        let i_kh = &sc.kh;
        // tmp ← (I − KH) P, pt ← tmp (I − KH)ᵀ (Joseph left term).
        reset_planes(&mut sc.tmp, len);
        for r in 0..N {
            for k in 0..N {
                let a_plane = &i_kh[r * N + k];
                for c in 0..N {
                    let rhs = &self.p[k * N + c];
                    let out = &mut sc.tmp[r * N + c];
                    for ((o, &a), &v) in out.iter_mut().zip(a_plane.iter()).zip(rhs.iter()) {
                        *o += a * v;
                    }
                }
            }
        }
        reset_planes(&mut sc.pt, len);
        for r in 0..N {
            for k in 0..N {
                let tmp_plane = &sc.tmp[r * N + k];
                for c in 0..N {
                    let b_plane = &i_kh[c * N + k];
                    let out = &mut sc.pt[r * N + c];
                    for ((o, &v), &b) in out.iter_mut().zip(tmp_plane.iter()).zip(b_plane.iter()) {
                        *o += v * b;
                    }
                }
            }
        }
        // kr ← K R, krk ← kr Kᵀ (Joseph right term).
        reset_planes(&mut sc.kr, len);
        for r in 0..N {
            for q in 0..M {
                let k_plane = &sc.s_inv_hp[q * N + r];
                for j in 0..M {
                    let b = r_mat[q][j];
                    let out = &mut sc.kr[r * M + j];
                    for (o, &v) in out.iter_mut().zip(k_plane.iter()) {
                        *o += v * b;
                    }
                }
            }
        }
        reset_planes(&mut sc.krk, len);
        for r in 0..N {
            for j in 0..M {
                let kr_plane = &sc.kr[r * M + j];
                for c in 0..N {
                    let b_plane = &sc.s_inv_hp[j * N + c];
                    let out = &mut sc.krk[r * N + c];
                    for ((o, &v), &b) in out.iter_mut().zip(kr_plane.iter()).zip(b_plane.iter()) {
                        *o += v * b;
                    }
                }
            }
        }
        // Commit: x, P ← posterior, symmetrize, staleness reset.
        for r in 0..N {
            std::mem::swap(&mut self.x[r], &mut sc.x_new[r]);
        }
        for idx in 0..N * N {
            let dst = &mut self.p[idx];
            dst.copy_from_slice(&sc.pt[idx]);
            let src = &sc.krk[idx];
            for (d, &v) in dst.iter_mut().zip(src.iter()) {
                *d += v;
            }
        }
        self.symmetrize_p();
        for steps in self.steps_since_update.iter_mut() {
            *steps = 0;
        }
        Ok(self.count_nonfinite())
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
        let mut x = [0.0; N];
        for r in 0..N {
            x[r] = self.x[r][lane];
        }
        let mut p = [[0.0; N]; N];
        for r in 0..N {
            for c in 0..N {
                p[r][c] = self.p[r * N + c][lane];
            }
        }
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
        let mut out = Vector::zeros(M);
        for j in 0..M {
            let mut acc = 0.0;
            for (k, x_plane) in self.x.iter().enumerate() {
                acc += self.kernel.h()[j][k] * x_plane[lane];
            }
            out[j] = acc;
        }
        out
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
        let h = self.kernel.h();
        let sc = &mut self.scratch;
        // ẑ = H x into the innovation planes, then fold the max-norm error.
        reset_planes(&mut sc.innovation, len);
        sc.tol.clear();
        sc.tol.resize(len, 0.0);
        for j in 0..M {
            let plane = &mut sc.innovation[j];
            for (k, x_plane) in self.x.iter().enumerate() {
                let a = h[j][k];
                for (o, &v) in plane.iter_mut().zip(x_plane.iter()) {
                    *o += a * v;
                }
            }
            let zs = &z[j * len..(j + 1) * len];
            for ((err, &zhat), &zv) in sc.tol.iter_mut().zip(plane.iter()).zip(zs.iter()) {
                *err = err.max((zhat - zv).abs());
            }
        }
        for (o, &err) in out.iter_mut().zip(sc.tol.iter()) {
            *o = err <= delta;
        }
        Ok(())
    }

    fn symmetrize_p(&mut self) {
        for r in 0..N {
            for c in (r + 1)..N {
                let (lo, hi) = (r * N + c, c * N + r);
                for s_idx in 0..self.len {
                    let avg = 0.5 * (self.p[lo][s_idx] + self.p[hi][s_idx]);
                    self.p[lo][s_idx] = avg;
                    self.p[hi][s_idx] = avg;
                }
            }
        }
    }

    /// Counts non-finite lanes via a plane-wise NaN-propagation sweep: a
    /// single fused pass accumulates `v · 0.0` over every plane, which is
    /// `0.0` for finite `v` and NaN otherwise, so most ticks conclude
    /// "everything finite" without a per-lane scan.
    fn count_nonfinite(&mut self) -> usize {
        let sc = &mut self.scratch;
        sc.tol.clear();
        sc.tol.resize(self.len, 0.0);
        for plane in self.x.iter().chain(self.p.iter()) {
            for (acc, &v) in sc.tol.iter_mut().zip(plane.iter()) {
                *acc += v * 0.0;
            }
        }
        sc.tol.iter().filter(|acc| **acc != 0.0).count()
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
}
