//! Workspace proptests for the tentpole equivalence claim: the
//! shape-generic filter code ([`KalmanFilter::predict_dynamic`] /
//! [`KalmanFilter::update_dynamic`]), the shape-dispatched [`KalmanFilter`]
//! the system actually steps, the monomorphized [`StaticKernel`], and the
//! structure-of-arrays [`FleetBatch`] are **bit-identical** — same state
//! bits, same covariance bits, same update diagnostics, same suppression
//! verdicts — on any well-conditioned model, for every shape of the
//! workspace table, over 1000-tick runs; and the dispatched filter fails
//! exactly as the shape-generic code does (same error, same state left
//! behind) when `S` is indefinite or the state overflows.
//!
//! Models and measurement streams are derived from a proptest-chosen seed
//! via a local xorshift generator, so each case explores a different
//! random model while the proptest input stays small enough to shrink.

// Counted loops mirror the kernels under test; index-based access is the
// clearest way to compare the three paths element by element.
#![allow(clippy::needless_range_loop)]

use kalstream_filter::{CovarianceUpdate, FilterError, FleetBatch, KalmanFilter, StateModel};
use kalstream_linalg::{Matrix, StaticKernel, Vector};
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

/// Steps `LANES` streams for `TICKS` ticks through all four paths and
/// proves per-tick bit-identity of state, covariance, update diagnostics
/// and suppression verdict. "Scalar" below is the dispatched
/// [`KalmanFilter`]; `dynamics` holds its shape-generic reference twins.
fn assert_all_paths<const N: usize, const M: usize>(
    seed: u64,
    delta: f64,
) -> Result<(), TestCaseError> {
    let mut rng = Rng64::new(seed);
    let model = random_model(&mut rng, N, M);
    let kernel = StaticKernel::<N, M>::from_matrices(model.f(), model.q(), model.h(), model.r())
        .expect("static kernel");
    let mut batch = FleetBatch::<N, M>::new(&model).expect("batch");

    let mut scalars = Vec::with_capacity(LANES);
    let mut dynamics = Vec::with_capacity(LANES);
    let mut xs = [[0.0f64; N]; LANES];
    let mut ps = [[[0.0f64; N]; N]; LANES];
    for lane in 0..LANES {
        let x0 = Vector::from_slice(&std::array::from_fn::<f64, N, _>(|_| rng.range(-5.0, 5.0)));
        let p0 = Matrix::scalar(N, rng.range(0.5, 2.0));
        scalars.push(
            KalmanFilter::with_covariance(model.clone(), x0.clone(), p0.clone()).expect("kf"),
        );
        dynamics.push(scalars[lane].clone());
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

            // Shape-generic reference: the code the dispatch bypasses.
            let reference = &mut dynamics[lane];
            reference.predict_dynamic().expect("dynamic predict");
            let ref_out = reference.update_dynamic(&z_vec).expect("dynamic update");
            prop_assert_eq!(
                filter_bits(kf),
                filter_bits(reference),
                "dispatched vs dynamic, lane {} tick {}",
                lane,
                t
            );
            prop_assert_eq!(
                bits(out.innovation.as_slice()),
                bits(ref_out.innovation.as_slice())
            );
            prop_assert_eq!(
                bits(out.innovation_cov.as_slice()),
                bits(ref_out.innovation_cov.as_slice())
            );
            prop_assert_eq!(out.innovation_cov.shape(), (M, M));
            prop_assert_eq!(out.nis.to_bits(), ref_out.nis.to_bits());
            prop_assert_eq!(
                out.log_likelihood.to_bits(),
                ref_out.log_likelihood.to_bits()
            );

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

            let (bx, bp, bsteps) = batch.lane_state(lane);
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

/// A dispatched filter and its shape-generic twin over one random model,
/// warmed up a few ticks so `P` is a genuine posterior.
fn warmed_pair(rng: &mut Rng64, n: usize, m: usize) -> (KalmanFilter, KalmanFilter) {
    let model = random_model(rng, n, m);
    let x0 = Vector::from_vec((0..n).map(|_| rng.range(-5.0, 5.0)).collect());
    let mut kf = KalmanFilter::new(model, x0, rng.range(0.5, 2.0)).expect("kf");
    let mut reference = kf.clone();
    for _ in 0..5 {
        let z = Vector::from_vec((0..m).map(|_| rng.range(-10.0, 10.0)).collect());
        kf.step(&z).expect("step");
        reference.predict_dynamic().expect("dynamic predict");
        reference.update_dynamic(&z).expect("dynamic update");
    }
    (kf, reference)
}

/// The failure modes of one shape: the dispatched filter must return the
/// error the shape-generic code returns and leave the same bits behind.
fn assert_error_paths(seed: u64, n: usize, m: usize) -> Result<(), TestCaseError> {
    let mut rng = Rng64::new(seed);

    // Indefinite S (R far below −H P Hᵀ): NotPositiveDefinite with the
    // same pivot and value, state and covariance untouched on both routes.
    let (mut kf, mut reference) = warmed_pair(&mut rng, n, m);
    let r_bad = Matrix::scalar(m, -1e6);
    kf.set_measurement_noise(&r_bad).expect("shape");
    reference.set_measurement_noise(&r_bad).expect("shape");
    kf.predict().expect("predict");
    reference.predict_dynamic().expect("dynamic predict");
    let before = filter_bits(&kf);
    let z = Vector::from_vec((0..m).map(|_| rng.range(-10.0, 10.0)).collect());
    let err = kf.update(&z).expect_err("indefinite S");
    let ref_err = reference.update_dynamic(&z).expect_err("indefinite S");
    prop_assert!(
        matches!(err, FilterError::Linalg(_)),
        "({}, {}): {:?}",
        n,
        m,
        err
    );
    prop_assert_eq!(&err, &ref_err, "({}, {}) indefinite S", n, m);
    prop_assert_eq!(filter_bits(&kf), before.clone(), "untouched on error");
    prop_assert_eq!(filter_bits(&reference), before);

    // A wrong-sized measurement is refused the same way.
    let short = Vector::zeros(m + 1);
    prop_assert_eq!(
        kf.update(&short).expect_err("bad dim"),
        reference.update_dynamic(&short).expect_err("bad dim")
    );

    // Overflow in the update: state and observation at opposite ends of
    // the f64 range make the innovation infinite. Diverged on both, same
    // non-finite bits left in place.
    let (mut kf, mut reference) = warmed_pair(&mut rng, n, m);
    let h0 = kf.model().h().row(0).to_vec();
    let x_far = Vector::from_vec(h0.iter().map(|h| -1e308 * h.signum()).collect());
    let p = kf.covariance().clone();
    kf.set_state_from(&x_far, &p).expect("shape");
    reference.set_state_from(&x_far, &p).expect("shape");
    let far = Vector::filled(m, f64::MAX);
    let err = kf.update(&far).expect_err("overflowing update");
    let ref_err = reference
        .update_dynamic(&far)
        .expect_err("overflowing update");
    prop_assert!(
        matches!(err, FilterError::Diverged { .. }),
        "({}, {}): {:?}",
        n,
        m,
        err
    );
    prop_assert_eq!(err, ref_err);
    prop_assert_eq!(filter_bits(&kf), filter_bits(&reference));

    // Overflow in the predict, from the poisoned state.
    let err = kf.predict().expect_err("poisoned predict");
    let ref_err = reference.predict_dynamic().expect_err("poisoned predict");
    prop_assert_eq!(err, ref_err);
    prop_assert_eq!(filter_bits(&kf), filter_bits(&reference));

    // The Simple covariance form has no static kernel: its public
    // predict/update are the shape-generic code, and it really is a
    // different formula (its bits part ways with the Joseph twin).
    let (joseph, _) = warmed_pair(&mut rng, n, m);
    let mut simple = joseph.clone();
    simple.set_covariance_update(CovarianceUpdate::Simple);
    let mut simple_reference = simple.clone();
    let mut joseph = joseph;
    let mut forms_differ = false;
    for _ in 0..50 {
        let z = Vector::from_vec((0..m).map(|_| rng.range(-10.0, 10.0)).collect());
        let out = simple.step(&z).expect("simple step");
        simple_reference.predict_dynamic().expect("dynamic predict");
        let ref_out = simple_reference.update_dynamic(&z).expect("dynamic update");
        prop_assert_eq!(filter_bits(&simple), filter_bits(&simple_reference));
        prop_assert_eq!(out.nis.to_bits(), ref_out.nis.to_bits());
        joseph.step(&z).expect("joseph step");
        forms_differ |= filter_bits(&simple).1 != filter_bits(&joseph).1;
    }
    prop_assert!(
        forms_differ,
        "({}, {}): Simple and Joseph covariance never parted ways",
        n,
        m
    );
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn dispatched_error_paths_match_dynamic(seed in any::<u64>()) {
        for (n, m) in [
            (1, 1),
            (2, 1), (2, 2),
            (4, 1), (4, 2), (4, 3), (4, 4),
            (8, 1), (8, 2), (8, 3), (8, 4),
        ] {
            prop_assert!(kalstream_filter::DynFleetBatch::supported(n, m));
            assert_error_paths(seed, n, m)?;
        }
    }
}
