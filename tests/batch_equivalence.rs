//! Workspace proptests for the one-kernel claim. Every Kalman step in the
//! workspace runs on the monomorphized [`StaticKernel`]; these hold the
//! shape-dispatched [`KalmanFilter`] the system actually steps, the kernel
//! itself and the structure-of-arrays [`FleetBatch`] **bit-identical** to
//! [`Textbook`], a Kalman filter written over the allocating
//! `Matrix`/`Cholesky` API — same state bits, same covariance bits, same
//! update diagnostics, same suppression verdicts — on any well-conditioned
//! model:
//!
//! * all four paths, for every shape of the workspace table, over
//!   1000-tick runs (`dims_*`);
//! * the dispatched filter and a [`DynFleetBatch`] lane, for every shape
//!   a filter admits (state ≤ 8, measurement ≤ 4, measurement > state
//!   included: exact table rows and zero-padded ones alike), in both
//!   covariance forms, through predicts, updates and packed state writes
//!   (`every_runtime_shape_matches_the_textbook_filter`);
//! * the dispatched filter's failures, on the same shapes: the same error
//!   and the same bits left behind when `S` is indefinite, `z` has the
//!   wrong length, or the state overflows
//!   (`dispatched_error_paths_match_dynamic`).
//!
//! Models and measurement streams are derived from a proptest-chosen seed
//! via a local xorshift generator, so each case explores a different
//! random model while the proptest input stays small enough to shrink.

// Counted loops mirror the kernels under test; index-based access is the
// clearest way to compare the paths element by element.
#![allow(clippy::needless_range_loop)]

use kalstream_filter::{
    CovarianceUpdate, DynFleetBatch, FilterError, FleetBatch, KalmanFilter, StateModel,
};
use kalstream_linalg::{Matrix, StaticKernel, Vector, DIM_CAP};
use proptest::prelude::*;

const TICKS: usize = 1_000;
/// One full chunk of the batch's kernel width (4) and a one-lane tail, so
/// every random model runs through both a whole pack and a padded one.
const LANES: usize = 5;

/// xorshift64* — deterministic model/measurement material from one seed.
struct Rng64(u64);

impl Rng64 {
    fn new(seed: u64) -> Self {
        Rng64(seed ^ 0x9E37_79B9_7F4A_7C15 | 1)
    }

    fn next_f64(&mut self) -> f64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        (x.wrapping_mul(0x2545_F491_4F6C_DD1D) >> 11) as f64 / (1u64 << 53) as f64
    }

    fn range(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * self.next_f64()
    }
}

/// A random stable model: `F` strictly diagonally dominant with spectral
/// radius < 1 (row sums below one), diagonal `Q`/`R` bounded away from
/// zero, dense random `H`. Well-conditioned by construction so every
/// update succeeds on all three paths.
fn random_model(rng: &mut Rng64, n: usize, m: usize) -> StateModel {
    let mut f = vec![vec![0.0f64; n]; n];
    for (i, row) in f.iter_mut().enumerate() {
        for (j, v) in row.iter_mut().enumerate() {
            *v = if i == j {
                rng.range(0.5, 0.9)
            } else {
                rng.range(-0.1, 0.1) / n as f64
            };
        }
    }
    let mut q = vec![vec![0.0f64; n]; n];
    for (i, row) in q.iter_mut().enumerate() {
        row[i] = rng.range(1e-4, 0.1);
    }
    let mut h = vec![vec![0.0f64; n]; m];
    for row in &mut h {
        for v in row.iter_mut() {
            *v = rng.range(-1.0, 1.0);
        }
    }
    let mut r = vec![vec![0.0f64; m]; m];
    for (j, row) in r.iter_mut().enumerate() {
        row[j] = rng.range(1e-3, 0.5);
    }
    let as_matrix = |rows: &[Vec<f64>]| {
        let refs: Vec<&[f64]> = rows.iter().map(Vec::as_slice).collect();
        Matrix::from_rows(&refs)
    };
    StateModel::new(
        "prop-random",
        as_matrix(&f),
        as_matrix(&q),
        as_matrix(&h),
        as_matrix(&r),
    )
    .expect("shapes are consistent by construction")
}

/// Raw bits of a slice, for exact comparison (NaN-safe, sign-of-zero-safe).
fn bits(values: &[f64]) -> Vec<u64> {
    values.iter().map(|v| v.to_bits()).collect()
}

/// A filter's observable state as raw bits.
fn filter_bits(kf: &KalmanFilter) -> (Vec<u64>, Vec<u64>, u64) {
    (
        bits(kf.state().as_slice()),
        bits(kf.covariance().as_slice()),
        kf.steps_since_update(),
    )
}

/// The reference: the Kalman filter spelled the textbook way, one
/// allocating `Matrix`/`Cholesky` product at a time, at the model's own
/// shape. Its failure behaviour is [`KalmanFilter`]'s contract: a
/// wrong-sized `z` or an indefinite `S` leaves `x` and `P` untouched, a
/// non-finite result is stored and then reported as diverged.
#[derive(Clone)]
struct Textbook {
    model: StateModel,
    form: CovarianceUpdate,
    x: Vector,
    p: Matrix,
    steps_since_update: u64,
}

/// What a [`Textbook`] update reports.
struct Diagnostics {
    nis: f64,
    log_likelihood: f64,
}

impl Textbook {
    fn of(kf: &KalmanFilter) -> Self {
        Textbook {
            model: kf.model().clone(),
            form: kf.covariance_update(),
            x: kf.state().clone(),
            p: kf.covariance().clone(),
            steps_since_update: kf.steps_since_update(),
        }
    }

    fn bits(&self) -> (Vec<u64>, Vec<u64>, u64) {
        (
            bits(self.x.as_slice()),
            bits(self.p.as_slice()),
            self.steps_since_update,
        )
    }

    fn check_finite(&self) -> Result<(), FilterError> {
        if !self.x.is_finite() {
            return Err(FilterError::Diverged { what: "state" });
        }
        if !self.p.is_finite() {
            return Err(FilterError::Diverged { what: "covariance" });
        }
        Ok(())
    }

    /// `x ← F x`, `P ← F P Fᵀ + Q`, re-symmetrised.
    fn predict(&mut self) -> Result<(), FilterError> {
        let f = self.model.f();
        self.x = f.mul_vec(&self.x)?;
        self.p = &f.sandwich(&self.p)? + self.model.q();
        self.p.symmetrize_mut();
        self.steps_since_update += 1;
        self.check_finite()
    }

    /// Innovation, `S = H P Hᵀ + R`, gain `K = (S⁻¹ H P)ᵀ`, `x ← x + K ν`,
    /// then the covariance form's `P`, re-symmetrised.
    fn update(&mut self, z: &Vector) -> Result<Diagnostics, FilterError> {
        let (h, r) = (self.model.h(), self.model.r());
        if z.dim() != h.rows() {
            return Err(FilterError::BadMeasurement {
                expected: h.rows(),
                actual: z.dim(),
            });
        }
        let innovation = z - &h.mul_vec(&self.x)?;
        let mut s = &h.sandwich(&self.p)? + r;
        s.symmetrize_mut();
        let chol = s.cholesky()?;
        let k = chol.solve_mat(&h.matmul(&self.p)?)?.transpose();
        self.x += &k.mul_vec(&innovation)?;
        let i_kh = &Matrix::identity(self.x.dim()) - &k.matmul(h)?;
        self.p = match self.form {
            CovarianceUpdate::Joseph => {
                &i_kh.sandwich(&self.p)? + &k.matmul(r)?.matmul(&k.transpose())?
            }
            CovarianceUpdate::Simple => i_kh.matmul(&self.p)?,
        };
        self.p.symmetrize_mut();
        self.steps_since_update = 0;
        self.check_finite()?;
        let nis = innovation.dot(&chol.solve_vec(&innovation)?)?;
        let log_likelihood =
            -0.5 * (nis + chol.log_det() + (z.dim() as f64) * std::f64::consts::TAU.ln());
        Ok(Diagnostics {
            nis,
            log_likelihood,
        })
    }
}

/// An update's diagnostics, dispatched vs textbook, bit for bit. (`ν` and
/// `S` stay inside the filter; `kalman.rs`'s unit tests hold them to the
/// textbook route on every shape.)
fn assert_same_diagnostics(
    out: &kalstream_filter::UpdateStats,
    reference: &Diagnostics,
) -> Result<(), TestCaseError> {
    prop_assert_eq!(out.nis.to_bits(), reference.nis.to_bits());
    prop_assert_eq!(
        out.log_likelihood.to_bits(),
        reference.log_likelihood.to_bits()
    );
    Ok(())
}

/// Steps `LANES` streams for `TICKS` ticks through all four paths and
/// proves per-tick bit-identity of state, covariance, update diagnostics
/// and suppression verdict. "Scalar" below is the dispatched
/// [`KalmanFilter`]; `references` holds its [`Textbook`] twins.
fn assert_all_paths<const N: usize, const M: usize>(
    seed: u64,
    delta: f64,
) -> Result<(), TestCaseError> {
    let mut rng = Rng64::new(seed);
    let model = random_model(&mut rng, N, M);
    let kernel = StaticKernel::<N, M>::from_matrices(model.f(), model.q(), model.h(), model.r())
        .expect("static kernel");
    let mut batch = FleetBatch::<N, M>::new(&model, CovarianceUpdate::Joseph).expect("batch");

    let mut scalars = Vec::with_capacity(LANES);
    let mut references = Vec::with_capacity(LANES);
    let mut xs = [[0.0f64; N]; LANES];
    let mut ps = [[[0.0f64; N]; N]; LANES];
    for lane in 0..LANES {
        let x0 = Vector::from_slice(&std::array::from_fn::<f64, N, _>(|_| rng.range(-5.0, 5.0)));
        let p0 = Matrix::scalar(N, rng.range(0.5, 2.0));
        scalars.push(
            KalmanFilter::with_covariance(model.clone(), x0.clone(), p0.clone()).expect("kf"),
        );
        references.push(Textbook::of(&scalars[lane]));
        for i in 0..N {
            xs[lane][i] = x0[i];
            for j in 0..N {
                ps[lane][i][j] = p0.get(i, j);
            }
        }
        batch.push(&x0, &p0, 0).expect("lane");
    }

    let mut z_plane = vec![0.0f64; M * LANES];
    let mut verdicts = vec![false; LANES];
    let mut total_suppressed = 0u64;
    for t in 0..TICKS {
        // One fresh measurement vector per lane, shared by all three paths.
        let mut z_arrs = [[0.0f64; M]; LANES];
        for (lane, z) in z_arrs.iter_mut().enumerate() {
            for (j, v) in z.iter_mut().enumerate() {
                *v = rng.range(-10.0, 10.0);
                z_plane[j * LANES + lane] = *v;
            }
        }

        // Batch path: predict → verdicts → update, whole fleet at once.
        batch.predict_all();
        batch
            .suppression_verdicts_into(&z_plane, delta, &mut verdicts)
            .expect("verdicts");
        batch.update_all(&z_plane).expect("batch update");

        for lane in 0..LANES {
            // Scalar path.
            let kf = &mut scalars[lane];
            kf.predict().expect("predict");
            let z_vec = Vector::from_slice(&z_arrs[lane]);
            let scalar_verdict = kf.predicted_measurement().max_abs_diff(&z_vec) <= delta;
            prop_assert_eq!(
                kf.innovation_norm(&z_vec).to_bits(),
                kf.predicted_measurement().max_abs_diff(&z_vec).to_bits()
            );
            let out = kf.update(&z_vec).expect("scalar update");

            // The textbook reference.
            let reference = &mut references[lane];
            reference.predict().expect("textbook predict");
            let ref_out = reference.update(&z_vec).expect("textbook update");
            prop_assert_eq!(
                filter_bits(kf),
                reference.bits(),
                "dispatched vs textbook, lane {} tick {}",
                lane,
                t
            );
            assert_same_diagnostics(&out, &ref_out)?;

            // Static-kernel path.
            kernel.predict(&mut xs[lane], &mut ps[lane]);
            let static_verdict = kernel.within_bound(&xs[lane], &z_arrs[lane], delta);
            kernel
                .update(&mut xs[lane], &mut ps[lane], &z_arrs[lane])
                .expect("static update");

            prop_assert_eq!(
                scalar_verdict,
                static_verdict,
                "verdict scalar vs static, lane {} tick {}",
                lane,
                t
            );
            prop_assert_eq!(
                scalar_verdict,
                verdicts[lane],
                "verdict scalar vs batch, lane {} tick {}",
                lane,
                t
            );
            total_suppressed += u64::from(scalar_verdict);

            let lane_kf = batch.lane_filter(lane, "lane");
            let (bx, bp, bsteps) = (
                lane_kf.state(),
                lane_kf.covariance(),
                lane_kf.steps_since_update(),
            );
            prop_assert_eq!(bsteps, kf.steps_since_update());
            for i in 0..N {
                prop_assert_eq!(
                    kf.state()[i].to_bits(),
                    xs[lane][i].to_bits(),
                    "x[{}] scalar vs static, lane {} tick {}",
                    i,
                    lane,
                    t
                );
                prop_assert_eq!(
                    kf.state()[i].to_bits(),
                    bx[i].to_bits(),
                    "x[{}] scalar vs batch, lane {} tick {}",
                    i,
                    lane,
                    t
                );
                for j in 0..N {
                    prop_assert_eq!(
                        kf.covariance().get(i, j).to_bits(),
                        ps[lane][i][j].to_bits(),
                        "P[{}][{}] scalar vs static, lane {} tick {}",
                        i,
                        j,
                        lane,
                        t
                    );
                    prop_assert_eq!(
                        kf.covariance().get(i, j).to_bits(),
                        bp.get(i, j).to_bits(),
                        "P[{}][{}] scalar vs batch, lane {} tick {}",
                        i,
                        j,
                        lane,
                        t
                    );
                }
            }
        }
    }
    // The workload must exercise both verdict branches at least somewhere
    // across the run; an all-one-way δ would leave the comparison vacuous.
    let total = (TICKS * LANES) as u64;
    prop_assert!(
        total_suppressed < total,
        "delta so loose every tick suppressed"
    );
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn dims_1x1(seed in any::<u64>(), delta in 0.01..2.0f64) {
        assert_all_paths::<1, 1>(seed, delta)?;
    }

    #[test]
    fn dims_2x1(seed in any::<u64>(), delta in 0.01..2.0f64) {
        assert_all_paths::<2, 1>(seed, delta)?;
    }

    #[test]
    fn dims_2x2(seed in any::<u64>(), delta in 0.01..2.0f64) {
        assert_all_paths::<2, 2>(seed, delta)?;
    }

    #[test]
    fn dims_4x1(seed in any::<u64>(), delta in 0.01..2.0f64) {
        assert_all_paths::<4, 1>(seed, delta)?;
    }

    #[test]
    fn dims_4x2(seed in any::<u64>(), delta in 0.01..2.0f64) {
        assert_all_paths::<4, 2>(seed, delta)?;
    }

    #[test]
    fn dims_4x3(seed in any::<u64>(), delta in 0.01..2.0f64) {
        assert_all_paths::<4, 3>(seed, delta)?;
    }

    #[test]
    fn dims_4x4(seed in any::<u64>(), delta in 0.01..2.0f64) {
        assert_all_paths::<4, 4>(seed, delta)?;
    }

    #[test]
    fn dims_8x1(seed in any::<u64>(), delta in 0.01..2.0f64) {
        assert_all_paths::<8, 1>(seed, delta)?;
    }

    #[test]
    fn dims_8x2(seed in any::<u64>(), delta in 0.01..2.0f64) {
        assert_all_paths::<8, 2>(seed, delta)?;
    }

    #[test]
    fn dims_8x3(seed in any::<u64>(), delta in 0.01..2.0f64) {
        assert_all_paths::<8, 3>(seed, delta)?;
    }

    #[test]
    fn dims_8x4(seed in any::<u64>(), delta in 0.01..2.0f64) {
        assert_all_paths::<8, 4>(seed, delta)?;
    }
}

/// Every `(state_dim, measurement_dim)` a [`KalmanFilter`] admits:
/// state ≤ 8, measurement ≤ 4, measurement > state included.
fn admitted_shapes() -> impl Iterator<Item = (usize, usize)> {
    (1..=DIM_CAP).flat_map(|n| (1..=4).map(move |m| (n, m)))
}

/// Ticks per shape and covariance form of the runtime-shape sweep.
const SWEEP_TICKS: usize = 200;

/// Lane 0 of a one-lane batch as [`filter_bits`] reads a filter.
fn lane_bits(batch: &DynFleetBatch) -> (Vec<u64>, Vec<u64>, u64) {
    let kf = batch.lane_filter(0, "lane");
    let (x, p) = (kf.state(), kf.covariance());
    (
        bits(x.as_slice()),
        bits(p.as_slice()),
        kf.steps_since_update(),
    )
}

/// Ticks between the sweep's packed state writes (a protocol resync).
const RESYNC_EVERY: usize = 50;

/// One shape of the sweep: a random model stepped `SWEEP_TICKS` ticks in
/// both covariance forms, each form's dispatched filter and a
/// [`DynFleetBatch`] lane of the same form beside their [`Textbook`] twin,
/// compared bit for bit every tick (errors included: a failed step must
/// fail the same way on all three and ends that form's run). Every
/// [`RESYNC_EVERY`] ticks all three take the same packed state write.
/// Returns whether the Simple form's covariance ever parted from the
/// Joseph form's.
fn assert_shape_matches_textbook(seed: u64, n: usize, m: usize) -> Result<bool, TestCaseError> {
    let mut rng = Rng64::new(seed);
    let model = random_model(&mut rng, n, m);
    let x0 = Vector::from_vec((0..n).map(|_| rng.range(-5.0, 5.0)).collect());
    let joseph = KalmanFilter::new(model, x0, rng.range(0.5, 2.0)).expect("kf");
    let mut simple = joseph.clone();
    simple.set_covariance_update(CovarianceUpdate::Simple);
    let mut runs = [joseph, simple].map(|kf| {
        let reference = Textbook::of(&kf);
        let mut lane = DynFleetBatch::for_model_in_form(kf.model(), kf.covariance_update())
            .expect("every admitted shape has a batch row");
        lane.push(kf.state(), kf.covariance(), 0).expect("lane");
        Some((kf, reference, lane))
    });
    let mut forms_differ = false;
    for t in 0..SWEEP_TICKS {
        let z = Vector::from_vec((0..m).map(|_| rng.range(-10.0, 10.0)).collect());
        for run in &mut runs {
            let Some((kf, reference, lane)) = run else {
                continue;
            };
            if t % RESYNC_EVERY == RESYNC_EVERY / 2 {
                let x: Vec<f64> = reference.x.iter().map(|v| 0.5 * v).collect();
                let p_upper: Vec<f64> = (0..n)
                    .flat_map(|r| (r..n).map(move |c| (r, c)))
                    .map(|(r, c)| reference.p.get(r, c) * 1.5)
                    .collect();
                kf.set_state_packed(x.iter().copied(), p_upper.iter().copied())
                    .expect("packed lengths");
                lane.set_lane_packed(0, x.iter().copied(), p_upper.iter().copied())
                    .expect("packed lengths");
                reference.x = Vector::from_slice(&x);
                let mut upper = p_upper.iter();
                for r in 0..n {
                    for c in r..n {
                        let v = *upper.next().expect("n(n+1)/2 values");
                        reference.p.set(r, c, v);
                        reference.p.set(c, r, v);
                    }
                }
                reference.steps_since_update = 0;
            }
            let (got, want) = (kf.predict(), reference.predict());
            prop_assert_eq!(&got, &want, "({}, {}) predict tick {}", n, m, t);
            lane.predict_all();
            prop_assert_eq!(lane.lane_is_finite(0), want.is_ok());
            let outcome = if got.is_ok() {
                prop_assert_eq!(
                    lane.lane_filter(0, "lane").predicted_measurement(),
                    kf.predicted_measurement()
                );
                let (got, want) = (kf.update(&z), reference.update(&z));
                let lane_got = lane.update_lane(0, z.as_slice());
                match (&got, &want) {
                    (Ok(out), Ok(ref_out)) => assert_same_diagnostics(out, ref_out)?,
                    (Err(e), Err(ref_e)) => prop_assert_eq!(e, ref_e),
                    _ => prop_assert!(false, "({}, {}) tick {}: one update failed", n, m, t),
                }
                prop_assert_eq!(lane_got.err(), want.err(), "({}, {}) lane update", n, m);
                got.map(|_| ())
            } else {
                got
            };
            prop_assert_eq!(
                lane_bits(lane),
                reference.bits(),
                "({}, {}) {:?} lane, tick {}",
                n,
                m,
                lane.covariance_update(),
                t
            );
            prop_assert_eq!(
                filter_bits(kf),
                reference.bits(),
                "({}, {}) {:?} tick {}",
                n,
                m,
                kf.covariance_update(),
                t
            );
            if outcome.is_err() {
                *run = None;
            }
        }
        if let [Some((joseph, ..)), Some((simple, ..))] = &runs {
            forms_differ |= filter_bits(joseph).1 != filter_bits(simple).1;
        }
    }
    Ok(forms_differ)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn every_runtime_shape_matches_the_textbook_filter(seed in any::<u64>()) {
        let mut forms_differ = false;
        for (n, m) in admitted_shapes() {
            forms_differ |= assert_shape_matches_textbook(seed, n, m)?;
        }
        // The Simple form really is a different formula somewhere.
        prop_assert!(forms_differ, "Simple and Joseph covariance never parted ways");
    }
}

/// A dispatched filter and its [`Textbook`] twin over one random model,
/// warmed up a few ticks so `P` is a genuine posterior.
fn warmed_pair(rng: &mut Rng64, n: usize, m: usize) -> (KalmanFilter, Textbook) {
    let model = random_model(rng, n, m);
    let x0 = Vector::from_vec((0..n).map(|_| rng.range(-5.0, 5.0)).collect());
    let mut kf = KalmanFilter::new(model, x0, rng.range(0.5, 2.0)).expect("kf");
    let mut reference = Textbook::of(&kf);
    for _ in 0..5 {
        let z = Vector::from_vec((0..m).map(|_| rng.range(-10.0, 10.0)).collect());
        kf.step(&z).expect("step");
        reference.predict().expect("textbook predict");
        reference.update(&z).expect("textbook update");
    }
    (kf, reference)
}

/// The failure modes of one shape: the dispatched filter must return the
/// error the textbook filter returns and leave the same bits behind.
fn assert_error_paths(seed: u64, n: usize, m: usize) -> Result<(), TestCaseError> {
    let mut rng = Rng64::new(seed);

    // Indefinite S (R far below −H P Hᵀ): NotPositiveDefinite with the
    // same pivot and value, state and covariance untouched on both.
    let (mut kf, mut reference) = warmed_pair(&mut rng, n, m);
    let r_bad = Matrix::scalar(m, -1e6);
    kf.set_measurement_noise(&r_bad).expect("shape");
    reference
        .model
        .set_measurement_noise(&r_bad)
        .expect("shape");
    kf.predict().expect("predict");
    reference.predict().expect("textbook predict");
    let before = filter_bits(&kf);
    let z = Vector::from_vec((0..m).map(|_| rng.range(-10.0, 10.0)).collect());
    let err = kf.update(&z).expect_err("indefinite S");
    let ref_err = reference.update(&z).err().expect("indefinite S");
    prop_assert!(
        matches!(err, FilterError::Linalg(_)),
        "({}, {}): {:?}",
        n,
        m,
        err
    );
    prop_assert_eq!(&err, &ref_err, "({}, {}) indefinite S", n, m);
    prop_assert_eq!(filter_bits(&kf), before.clone(), "untouched on error");
    prop_assert_eq!(reference.bits(), before);

    // A wrong-sized measurement is refused the same way.
    let short = Vector::zeros(m + 1);
    prop_assert_eq!(
        kf.update(&short).expect_err("bad dim"),
        reference.update(&short).err().expect("bad dim")
    );

    // Overflow in the update: state and observation at opposite ends of
    // the f64 range make the innovation infinite. Diverged on both, same
    // non-finite bits left in place.
    let (mut kf, mut reference) = warmed_pair(&mut rng, n, m);
    let h0 = kf.model().h().row(0).to_vec();
    let x_far = Vector::from_vec(h0.iter().map(|h| -1e308 * h.signum()).collect());
    let p = kf.covariance().clone();
    kf.set_state_from(&x_far, &p).expect("shape");
    reference.x = x_far;
    reference.steps_since_update = 0;
    let far = Vector::filled(m, f64::MAX);
    let err = kf.update(&far).expect_err("overflowing update");
    let ref_err = reference.update(&far).err().expect("overflowing update");
    prop_assert!(
        matches!(err, FilterError::Diverged { .. }),
        "({}, {}): {:?}",
        n,
        m,
        err
    );
    prop_assert_eq!(err, ref_err);
    prop_assert_eq!(filter_bits(&kf), reference.bits());

    // Overflow in the predict, from the poisoned state.
    let err = kf.predict().expect_err("poisoned predict");
    let ref_err = reference.predict().expect_err("poisoned predict");
    prop_assert_eq!(err, ref_err);
    prop_assert_eq!(filter_bits(&kf), reference.bits());
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn dispatched_error_paths_match_dynamic(seed in any::<u64>()) {
        for (n, m) in admitted_shapes() {
            assert_error_paths(seed, n, m)?;
        }
    }
}
