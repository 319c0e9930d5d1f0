//! Accounting: traffic on the wire and error at the server.
//!
//! Every counter in this module is an [`kalstream_obs`] instrument (or a
//! struct of them) and implements [`Instrument`], so any report can be
//! exported into a [`kalstream_obs::Registry`] and serialized as a
//! deterministic snapshot. The migration is type-level only: accumulation
//! semantics, accessors, and the recorded experiment tables are unchanged.

use kalstream_obs::{Counter, Instrument, Scope};

/// Wire-traffic counters maintained by [`crate::Link`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TrafficMetrics {
    messages: Counter,
    bytes: Counter,
}

impl TrafficMetrics {
    /// Records one message of `total_bytes` (payload + framing).
    pub fn record(&mut self, total_bytes: usize) {
        self.messages.inc();
        self.bytes += total_bytes as u64;
    }

    /// Messages sent.
    pub fn messages(&self) -> u64 {
        self.messages.get()
    }

    /// Bytes sent, including per-message framing overhead.
    pub fn bytes(&self) -> u64 {
        self.bytes.get()
    }

    /// Folds another counter into this one (fleet aggregation).
    pub fn merge(&mut self, other: &TrafficMetrics) {
        self.messages.merge(other.messages);
        self.bytes.merge(other.bytes);
    }
}

impl Instrument for TrafficMetrics {
    fn export(&self, scope: &mut Scope<'_>) {
        scope.counter("messages", self.messages);
        scope.counter("bytes", self.bytes);
    }
}

/// Fault-injection counters maintained by [`crate::Link`]: what the link
/// actually did to the traffic it carried.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultCounters {
    /// Messages dropped by injected loss.
    pub dropped: u64,
    /// Messages duplicated in flight.
    pub duplicated: u64,
    /// Messages deliberately delivered out of order.
    pub reordered: u64,
}

impl FaultCounters {
    /// Folds another counter into this one (fleet / multi-link aggregation).
    pub fn merge(&mut self, other: &FaultCounters) {
        self.dropped += other.dropped;
        self.duplicated += other.duplicated;
        self.reordered += other.reordered;
    }
}

impl Instrument for FaultCounters {
    fn export(&self, scope: &mut Scope<'_>) {
        scope.counter("dropped", self.dropped);
        scope.counter("duplicated", self.duplicated);
        scope.counter("reordered", self.reordered);
    }
}

/// Receiver-side delivery accounting for the sequenced (v3) protocol: what
/// the server detected and did about imperfect delivery.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DeliveryStats {
    /// Sequenced syncs dropped as stale or duplicate (sequence number at or
    /// below the highest already applied).
    pub stale_drops: u64,
    /// Sequence numbers skipped on arrival (gap between consecutive applied
    /// syncs); counts messages that were lost *or* merely delayed past a
    /// newer one.
    pub seq_gaps: u64,
    /// Queued syncs shed by the server's bounded pending queue.
    pub shed: u64,
}

impl DeliveryStats {
    /// Folds another stats block into this one (fleet aggregation).
    pub fn merge(&mut self, other: &DeliveryStats) {
        self.stale_drops += other.stale_drops;
        self.seq_gaps += other.seq_gaps;
        self.shed += other.shed;
    }
}

impl Instrument for DeliveryStats {
    fn export(&self, scope: &mut Scope<'_>) {
        scope.counter("stale_drops", self.stale_drops);
        scope.counter("seq_gaps", self.seq_gaps);
        scope.counter("shed", self.shed);
    }
}

/// Server-side error accounting against ground truth.
///
/// `violations` counts ticks where the error exceeded the precision bound
/// `delta` (beyond a small numerical tolerance). Under zero link latency the
/// suppression protocol must keep this at exactly zero *against the observed
/// signal*; experiments score against ground truth as well, where sensor
/// noise adds an irreducible floor.
#[derive(Debug, Clone)]
pub struct ErrorMetrics {
    delta: f64,
    ticks: u64,
    sum_sq: f64,
    sum_abs: f64,
    max_abs: f64,
    violations: u64,
}

impl ErrorMetrics {
    /// Creates an accumulator scoring against precision bound `delta`.
    pub fn new(delta: f64) -> Self {
        ErrorMetrics {
            delta,
            ticks: 0,
            sum_sq: 0.0,
            sum_abs: 0.0,
            max_abs: 0.0,
            violations: 0,
        }
    }

    /// Records the error of one tick. For multi-dimensional streams, pass
    /// the norm the precision contract is defined over (the protocol layer
    /// uses the max-norm across dimensions).
    pub fn record(&mut self, abs_err: f64) {
        self.ticks += 1;
        self.sum_sq += abs_err * abs_err;
        self.sum_abs += abs_err;
        if abs_err > self.max_abs {
            self.max_abs = abs_err;
        }
        // 1e-9 relative slack: the source's suppression test and this check
        // must never disagree due to rounding alone.
        if abs_err > self.delta * (1.0 + 1e-9) + 1e-12 {
            self.violations += 1;
        }
    }

    /// Precision bound being scored against.
    pub fn delta(&self) -> f64 {
        self.delta
    }

    /// Ticks recorded.
    pub fn ticks(&self) -> u64 {
        self.ticks
    }

    /// Root-mean-square error.
    pub fn rmse(&self) -> f64 {
        if self.ticks == 0 {
            0.0
        } else {
            (self.sum_sq / self.ticks as f64).sqrt()
        }
    }

    /// Mean absolute error.
    pub fn mean_abs(&self) -> f64 {
        if self.ticks == 0 {
            0.0
        } else {
            self.sum_abs / self.ticks as f64
        }
    }

    /// Maximum absolute error observed.
    pub fn max_abs(&self) -> f64 {
        self.max_abs
    }

    /// Ticks on which the bound was violated.
    pub fn violations(&self) -> u64 {
        self.violations
    }
}

impl Instrument for ErrorMetrics {
    fn export(&self, scope: &mut Scope<'_>) {
        scope.counter("ticks", self.ticks);
        scope.counter("violations", self.violations);
        scope.gauge("delta", self.delta);
        scope.gauge("rmse", self.rmse());
        scope.gauge("mean_abs", self.mean_abs());
        scope.gauge("max_abs", self.max_abs);
    }
}

/// Complete result of one simulated session, as reported by
/// [`crate::Session::run`].
#[derive(Debug, Clone)]
pub struct SessionReport {
    /// Ticks simulated.
    pub ticks: u64,
    /// Wire traffic on the forward (source→server) link.
    pub traffic: TrafficMetrics,
    /// Error of the server estimate vs. the *observed* signal (what the
    /// precision contract is defined over).
    pub error_vs_observed: ErrorMetrics,
    /// Error of the server estimate vs. ground truth (what a user of the
    /// system ultimately experiences; includes the sensor-noise floor).
    pub error_vs_truth: ErrorMetrics,
    /// Faults the forward link injected (loss/duplication/reordering).
    pub faults: FaultCounters,
    /// Receiver-side delivery accounting (stale drops, gaps, queue shed).
    pub delivery: DeliveryStats,
    /// Traffic on the reverse (server→source) ack link; zero when the
    /// consumer generates no feedback.
    pub ack_traffic: TrafficMetrics,
}

impl SessionReport {
    /// Messages per tick — the headline resource metric.
    pub fn message_rate(&self) -> f64 {
        if self.ticks == 0 {
            0.0
        } else {
            self.traffic.messages() as f64 / self.ticks as f64
        }
    }

    /// Fraction of samples suppressed (1 − message rate), clamped at 0 for
    /// protocols that send more than one message per tick.
    pub fn suppression_ratio(&self) -> f64 {
        (1.0 - self.message_rate()).max(0.0)
    }
}

impl Instrument for SessionReport {
    fn export(&self, scope: &mut Scope<'_>) {
        scope.counter("ticks", self.ticks);
        scope.observe("traffic", &self.traffic);
        scope.observe("error_observed", &self.error_vs_observed);
        scope.observe("error_truth", &self.error_vs_truth);
        scope.observe("faults", &self.faults);
        scope.observe("delivery", &self.delivery);
        scope.observe("ack_traffic", &self.ack_traffic);
        scope.gauge("message_rate", self.message_rate());
        scope.gauge("suppression_ratio", self.suppression_ratio());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn traffic_merge() {
        let mut a = TrafficMetrics::default();
        a.record(10);
        let mut b = TrafficMetrics::default();
        b.record(5);
        b.record(5);
        a.merge(&b);
        assert_eq!(a.messages(), 3);
        assert_eq!(a.bytes(), 20);
    }

    #[test]
    fn fault_and_delivery_merge() {
        let mut f = FaultCounters {
            dropped: 1,
            duplicated: 2,
            reordered: 3,
        };
        f.merge(&FaultCounters {
            dropped: 10,
            duplicated: 20,
            reordered: 30,
        });
        assert_eq!(
            f,
            FaultCounters {
                dropped: 11,
                duplicated: 22,
                reordered: 33
            }
        );

        let mut d = DeliveryStats {
            stale_drops: 1,
            seq_gaps: 2,
            shed: 3,
        };
        d.merge(&DeliveryStats {
            stale_drops: 4,
            seq_gaps: 5,
            shed: 6,
        });
        assert_eq!(
            d,
            DeliveryStats {
                stale_drops: 5,
                seq_gaps: 7,
                shed: 9
            }
        );
    }

    #[test]
    fn error_metrics_known_values() {
        let mut e = ErrorMetrics::new(1.0);
        for err in [0.5, 1.5, 0.0, 2.0] {
            e.record(err);
        }
        assert_eq!(e.ticks(), 4);
        assert_eq!(e.violations(), 2);
        assert_eq!(e.max_abs(), 2.0);
        assert!((e.mean_abs() - 1.0).abs() < 1e-12);
        assert!((e.rmse() - (6.5_f64 / 4.0).sqrt()).abs() < 1e-12);
    }

    #[test]
    fn exact_bound_is_not_a_violation() {
        let mut e = ErrorMetrics::new(1.0);
        e.record(1.0);
        assert_eq!(e.violations(), 0);
    }

    #[test]
    fn empty_metrics_are_zero() {
        let e = ErrorMetrics::new(0.5);
        assert_eq!(e.rmse(), 0.0);
        assert_eq!(e.mean_abs(), 0.0);
        assert_eq!(e.max_abs(), 0.0);
    }

    #[test]
    fn session_report_rates() {
        let mut traffic = TrafficMetrics::default();
        traffic.record(1);
        traffic.record(1);
        let report = SessionReport {
            ticks: 10,
            traffic,
            error_vs_observed: ErrorMetrics::new(1.0),
            error_vs_truth: ErrorMetrics::new(1.0),
            faults: FaultCounters::default(),
            delivery: DeliveryStats::default(),
            ack_traffic: TrafficMetrics::default(),
        };
        assert!((report.message_rate() - 0.2).abs() < 1e-12);
        assert!((report.suppression_ratio() - 0.8).abs() < 1e-12);
    }
}
