//! Shared protocol primitives: the measurement-pinning projection, the
//! precision norm, and the delivery ack tracker.

use kalstream_linalg::{Matrix, Vector};

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
    let hx = h.mul_vec(x).map_err(kalstream_filter::FilterError::from)?;
    let residual = z - &hx;
    let hht = h
        .matmul(&h.transpose())
        .map_err(kalstream_filter::FilterError::from)?;
    let chol = hht
        .cholesky()
        .map_err(kalstream_filter::FilterError::from)?;
    let w = chol
        .solve_vec(&residual)
        .map_err(kalstream_filter::FilterError::from)?;
    let correction = h
        .transpose()
        .mul_vec(&w)
        .map_err(kalstream_filter::FilterError::from)?;
    Ok(&(x.clone()) + &correction)
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
}
