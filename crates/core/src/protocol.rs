//! Shared protocol primitives: the measurement-pinning projection, the
//! precision norm, and the delivery ack tracker.

use kalstream_filter::FilterError;
use kalstream_linalg::{LinalgError, Matrix, Vector};

use crate::Result;

/// Source-side bookkeeping for ack-based loss recovery.
///
/// The source assigns monotonically increasing sequence numbers (starting
/// at 1) to outgoing syncs and records the server's cumulative
/// acknowledgements. Because every full-state sync completely overwrites the
/// server filter, acks are cumulative: an ack for sequence `s` proves the
/// server state reflects sync `s`, which subsumes every earlier loss. The
/// divergence signal is therefore simply "the *newest* sync has been
/// outstanding for too long" — [`AckTracker::overdue`].
#[derive(Debug, Clone)]
pub struct AckTracker {
    /// Next sequence number to assign (sequence numbers start at 1 so that
    /// `last_acked == 0` cleanly means "nothing acked yet").
    next_seq: u64,
    /// Sequence number of the newest sync sent (0 before the first send).
    newest_seq: u64,
    /// Highest cumulative ack received from the server.
    last_acked: u64,
    /// Ticks the newest sync has been outstanding (reset on each send).
    unacked_age: u64,
}

impl Default for AckTracker {
    fn default() -> Self {
        AckTracker {
            next_seq: 1,
            newest_seq: 0,
            last_acked: 0,
            unacked_age: 0,
        }
    }
}

impl AckTracker {
    /// Creates a tracker with no syncs outstanding.
    pub fn new() -> Self {
        AckTracker::default()
    }

    /// Assigns and returns the sequence number for an outgoing sync.
    pub fn on_send(&mut self) -> u64 {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.newest_seq = seq;
        self.unacked_age = 0;
        seq
    }

    /// Records a cumulative ack from the server. Stale (lower) acks — e.g.
    /// duplicated on a faulty reverse link — are ignored.
    pub fn on_ack(&mut self, seq: u64) {
        self.last_acked = self.last_acked.max(seq);
    }

    /// Advances the tracker by one tick, aging the outstanding window.
    pub fn tick(&mut self) {
        if self.outstanding() {
            self.unacked_age += 1;
        }
    }

    /// `true` while the newest sync has not been acknowledged.
    pub fn outstanding(&self) -> bool {
        self.newest_seq > self.last_acked
    }

    /// `true` when the newest sync has been outstanding for at least
    /// `timeout` ticks — the trigger for a forced full resync.
    pub fn overdue(&self, timeout: u64) -> bool {
        self.outstanding() && self.unacked_age >= timeout
    }

    /// Highest cumulative ack received.
    pub fn last_acked(&self) -> u64 {
        self.last_acked
    }

    /// Sequence number of the newest sync sent (0 before the first send).
    pub fn newest_seq(&self) -> u64 {
        self.newest_seq
    }
}

/// Projects a state so that its measurement image equals `z` exactly, moving
/// the state as little as possible (minimum-norm correction):
///
/// ```text
/// x' = x + Hᵀ (H Hᵀ)⁻¹ (z − H x)      ⇒      H x' = z
/// ```
///
/// This is what makes the suppression protocol's precision guarantee *exact*
/// at sync ticks: the filter posterior can lag a fast signal by more than
/// `δ`, but the state actually shipped to the server is pinned so the served
/// value right after a sync equals the observation. Unobserved state
/// components (velocity, acceleration, quadrature) are preserved.
///
/// # Errors
/// Propagates a linear-algebra failure when `H Hᵀ` is singular (an
/// observation matrix without full row rank — rejected models never have
/// this).
pub fn pin_to_measurement(x: &Vector, h: &Matrix, z: &Vector) -> Result<Vector> {
    let hx = h.mul_vec(x).map_err(FilterError::from)?;
    let residual = z - &hx;
    let hht = h.matmul(&h.transpose()).map_err(FilterError::from)?;
    let chol = hht.cholesky().map_err(FilterError::from)?;
    let w = chol.solve_vec(&residual).map_err(FilterError::from)?;
    let correction = h.transpose().mul_vec(&w).map_err(FilterError::from)?;
    Ok(&(x.clone()) + &correction)
}

/// [`pin_to_measurement`] for the sync path: the same floating-point
/// operations in the same order — so the same `x'`, bit for bit, and the
/// same error — on borrowed slices, with every intermediate (`H Hᵀ`, its
/// Cholesky factor, the solve) in `m`-sized stack arrays instead of ten
/// zero-filled 544-byte `Matrix` temporaries. `out` receives `x'`; on error
/// it is untouched. The allocating function above is this one's proptest
/// oracle.
///
/// # Errors
/// As [`pin_to_measurement`].
///
/// # Panics
/// Like the oracle's `z − H x`, panics when `z` is not `h.rows()` long.
pub(crate) fn pin_into(x: &[f64], h: &Matrix, z: &[f64], out: &mut [f64]) -> Result<()> {
    if h.cols() != x.len() {
        return Err(linalg_err(LinalgError::DimensionMismatch {
            op: "mul_vec",
            lhs: h.shape(),
            rhs: (x.len(), 1),
        }));
    }
    assert_eq!(z.len(), h.rows(), "pin: measurement dimension mismatch");
    match h.rows() {
        0 => Err(linalg_err(LinalgError::Empty { op: "cholesky" })),
        1 => pin_static::<1>(x, h, z, out),
        2 => pin_static::<2>(x, h, z, out),
        3 => pin_static::<3>(x, h, z, out),
        4 => pin_static::<4>(x, h, z, out),
        5 => pin_static::<5>(x, h, z, out),
        6 => pin_static::<6>(x, h, z, out),
        7 => pin_static::<7>(x, h, z, out),
        8 => pin_static::<8>(x, h, z, out),
        // Wider than any filter's measurement (the inline cap is 8).
        _ => {
            let pinned = pin_to_measurement(&Vector::from_slice(x), h, &Vector::from_slice(z))?;
            out.copy_from_slice(pinned.as_slice());
            Ok(())
        }
    }
}

fn linalg_err(e: LinalgError) -> crate::CoreError {
    FilterError::from(e).into()
}

// Index loops, as in `Cholesky::factor_into` / `solve_in_place`: the two
// are meant to be read side by side.
#[allow(clippy::needless_range_loop)]
fn pin_static<const M: usize>(x: &[f64], h: &Matrix, z: &[f64], out: &mut [f64]) -> Result<()> {
    // Residual z − H x (`mul_vec`, then the elementwise difference).
    let mut w = [0.0; M];
    for (r, w_r) in w.iter_mut().enumerate() {
        let mut acc = 0.0;
        for (a, b) in h.row(r).iter().zip(x) {
            acc += a * b;
        }
        *w_r = z[r] - acc;
    }
    // H Hᵀ, accumulated as `h.matmul(&h.transpose())` does: k-major per
    // output row, skipping zero left factors.
    let mut hht = [[0.0; M]; M];
    for (r, hht_r) in hht.iter_mut().enumerate() {
        for (k, &a) in h.row(r).iter().enumerate() {
            if a == 0.0 {
                continue;
            }
            for (c, o) in hht_r.iter_mut().enumerate() {
                *o += a * h.get(c, k);
            }
        }
    }
    // `Cholesky::factor_into`.
    let tol = 1e-13
        * hht
            .as_flattened()
            .iter()
            .fold(0.0_f64, |m, v| m.max(v.abs()))
            .max(1.0);
    let mut l = [[0.0; M]; M];
    for j in 0..M {
        let mut d = hht[j][j];
        for k in 0..j {
            d -= l[j][k] * l[j][k];
        }
        if d <= tol {
            return Err(linalg_err(LinalgError::NotPositiveDefinite {
                pivot: j,
                value: d,
            }));
        }
        let dsqrt = d.sqrt();
        l[j][j] = dsqrt;
        for i in (j + 1)..M {
            let mut v = hht[i][j];
            for k in 0..j {
                v -= l[i][k] * l[j][k];
            }
            l[i][j] = v / dsqrt;
        }
    }
    // `Cholesky::solve_in_place`: L y = residual, then Lᵀ w = y.
    for i in 0..M {
        let mut v = w[i];
        for k in 0..i {
            v -= l[i][k] * w[k];
        }
        w[i] = v / l[i][i];
    }
    for i in (0..M).rev() {
        let mut v = w[i];
        for k in (i + 1)..M {
            v -= l[k][i] * w[k];
        }
        w[i] = v / l[i][i];
    }
    // x' = x + Hᵀ w.
    for (r, (o, x_r)) in out.iter_mut().zip(x).enumerate() {
        let mut acc = 0.0;
        for (k, w_k) in w.iter().enumerate() {
            acc += h.get(k, r) * w_k;
        }
        *o = x_r + acc;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pinned_state_hits_measurement_exactly() {
        // Constant-velocity H = [1 0]: pinning must set position to z and
        // keep velocity untouched.
        let h = Matrix::from_rows(&[&[1.0, 0.0]]);
        let x = Vector::from_slice(&[5.0, 0.7]);
        let z = Vector::from_slice(&[6.5]);
        let pinned = pin_to_measurement(&x, &h, &z).unwrap();
        assert!((pinned[0] - 6.5).abs() < 1e-12);
        assert_eq!(pinned[1], 0.7);
    }

    #[test]
    fn pinning_2d_observation() {
        // 2-D GPS H selecting (x, y) out of [x, vx, y, vy].
        let h = Matrix::from_rows(&[&[1.0, 0.0, 0.0, 0.0], &[0.0, 0.0, 1.0, 0.0]]);
        let x = Vector::from_slice(&[1.0, 0.5, 2.0, -0.5]);
        let z = Vector::from_slice(&[10.0, 20.0]);
        let pinned = pin_to_measurement(&x, &h, &z).unwrap();
        assert!((pinned[0] - 10.0).abs() < 1e-12);
        assert!((pinned[2] - 20.0).abs() < 1e-12);
        assert_eq!(pinned[1], 0.5);
        assert_eq!(pinned[3], -0.5);
    }

    #[test]
    fn pinning_is_minimum_norm() {
        // With a non-trivial H the correction must be in H's row space.
        let h = Matrix::from_rows(&[&[1.0, 1.0]]);
        let x = Vector::from_slice(&[0.0, 0.0]);
        let z = Vector::from_slice(&[2.0]);
        let pinned = pin_to_measurement(&x, &h, &z).unwrap();
        // Minimum-norm solution of x0 + x1 = 2 is (1, 1).
        assert!((pinned[0] - 1.0).abs() < 1e-12);
        assert!((pinned[1] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn pinning_noop_when_already_exact() {
        let h = Matrix::from_rows(&[&[1.0, 0.0]]);
        let x = Vector::from_slice(&[3.0, 9.0]);
        let z = Vector::from_slice(&[3.0]);
        let pinned = pin_to_measurement(&x, &h, &z).unwrap();
        assert!(pinned.max_abs_diff(&x) < 1e-12);
    }

    #[test]
    fn ack_tracker_sequences_start_at_one() {
        let mut t = AckTracker::new();
        assert!(!t.outstanding());
        assert_eq!(t.newest_seq(), 0);
        assert_eq!(t.on_send(), 1);
        assert_eq!(t.on_send(), 2);
        assert_eq!(t.newest_seq(), 2);
        assert!(t.outstanding());
    }

    #[test]
    fn ack_clears_outstanding_cumulatively() {
        let mut t = AckTracker::new();
        t.on_send();
        t.on_send();
        t.on_send(); // 1, 2, 3 outstanding
        t.on_ack(3); // cumulative: clears everything
        assert!(!t.outstanding());
        assert_eq!(t.last_acked(), 3);
    }

    #[test]
    fn stale_ack_is_ignored() {
        let mut t = AckTracker::new();
        t.on_send();
        t.on_send();
        t.on_ack(2);
        t.on_ack(1); // duplicated/reordered old ack
        assert_eq!(t.last_acked(), 2);
        assert!(!t.outstanding());
    }

    #[test]
    fn overdue_after_timeout_ticks() {
        let mut t = AckTracker::new();
        t.on_send();
        for _ in 0..2 {
            t.tick();
        }
        assert!(!t.overdue(3));
        t.tick();
        assert!(t.overdue(3));
        // Partial ack of an older sync does not clear the newest.
        t.on_send();
        assert!(!t.overdue(3)); // age reset by the new send
        t.on_ack(1);
        assert!(t.outstanding());
    }

    #[test]
    fn age_does_not_accumulate_while_idle() {
        let mut t = AckTracker::new();
        for _ in 0..100 {
            t.tick(); // nothing outstanding: no aging
        }
        t.on_send();
        t.tick();
        assert!(!t.overdue(2));
        assert!(t.overdue(1));
    }

    /// The workspace shape table (`for_each_shape!` in `kalstream-filter`).
    const SHAPES: [(usize, usize); 11] = [
        (1, 1),
        (2, 1),
        (2, 2),
        (4, 1),
        (4, 2),
        (4, 3),
        (4, 4),
        (8, 1),
        (8, 2),
        (8, 3),
        (8, 4),
    ];

    /// `pin_into` against its oracle: the same bits on success, the same
    /// error (and an untouched `out`) on failure.
    fn assert_pin_matches_oracle(x: &[f64], h: &Matrix, z: &[f64]) {
        let oracle = pin_to_measurement(&Vector::from_slice(x), h, &Vector::from_slice(z));
        let mut out = vec![f64::from_bits(0xDEAD_BEEF); x.len()];
        match (pin_into(x, h, z, &mut out), oracle) {
            (Ok(()), Ok(pinned)) => {
                let bits = |v: &[f64]| v.iter().map(|f| f.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(&out), bits(pinned.as_slice()), "H = {h}");
            }
            (Err(a), Err(b)) => {
                assert_eq!(a, b);
                assert!(out.iter().all(|v| v.to_bits() == 0xDEAD_BEEF));
            }
            (a, b) => panic!("pin_into {a:?}, oracle {b:?}"),
        }
    }

    #[test]
    fn pin_into_matches_the_oracle_on_structured_observation_matrices() {
        for (n, m) in SHAPES {
            // Selector rows (the kinematic models' H), with exact zeros.
            let mut h = Matrix::zeros(m, n);
            for j in 0..m {
                h.set(j, (j * n) / m, 1.0);
            }
            let x: Vec<f64> = (0..n).map(|i| 0.5 - i as f64 * 0.37).collect();
            let z: Vec<f64> = (0..m).map(|j| 2.0 + j as f64 * 1.25).collect();
            assert_pin_matches_oracle(&x, &h, &z);
            // Already exact: the correction is all zeros, signs included.
            let hx = h.mul_vec(&Vector::from_slice(&x)).unwrap();
            assert_pin_matches_oracle(&x, &h, hx.as_slice());
            // Rank-deficient H: a repeated row (m ≥ 2) or a zero row.
            let mut deficient = h.clone();
            for k in 0..n {
                let v = if m >= 2 { h.get(0, k) } else { 0.0 };
                deficient.set(m - 1, k, v);
            }
            assert!(pin_into(&x, &deficient, &z, &mut vec![0.0; n]).is_err());
            assert_pin_matches_oracle(&x, &deficient, &z);
        }
        // Shape errors are the oracle's too.
        let h = Matrix::from_rows(&[&[1.0, 0.0]]);
        assert_pin_matches_oracle(&[1.0, 2.0, 3.0], &h, &[1.0]);
        // A measurement wider than any filter's takes the allocating route.
        let wide = Matrix::identity(9);
        assert_pin_matches_oracle(&[0.25; 9], &wide, &[1.5; 9]);
    }

    mod pin_fuzz {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #[test]
            fn pin_into_matches_the_oracle_on_dense_matrices(
                shape in 0usize..SHAPES.len(),
                entries in proptest::collection::vec(-3.0..3.0f64, 32),
                zeroed in proptest::collection::vec(0usize..32, 0..12),
                x in proptest::collection::vec(-50.0..50.0f64, 8),
                z in proptest::collection::vec(-50.0..50.0f64, 4),
            ) {
                let (n, m) = SHAPES[shape];
                let mut entries = entries;
                for at in zeroed {
                    // Exact zeros exercise the product's zero-skips; enough
                    // of them make H rank-deficient, which must fail alike.
                    entries[at] = if at % 2 == 0 { 0.0 } else { -0.0 };
                }
                let mut h = Matrix::zeros(m, n);
                h.as_mut_slice().copy_from_slice(&entries[..m * n]);
                assert_pin_matches_oracle(&x[..n], &h, &z[..m]);
            }
        }
    }
}
