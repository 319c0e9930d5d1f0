//! Fleet-scale filter stepping: scalar per-stream filters vs the
//! structure-of-arrays batch kernels, on identical deterministic workloads.
//!
//! What this module checks is the identity `BENCH_kernels.json` gates:
//! packing same-model streams into `FleetBatch` lanes and stepping
//! predict → update → suppression-decision a chunk of lanes at a time
//! leaves **bit-identical output** to stepping each `KalmanFilter`
//! individually. Both runners, on the caller's thread and with no timers
//! (the `benchmark/` crate's traced `filter.batch.step_ns_per_lane` is the
//! speed evidence):
//!
//! * build one constant-velocity filter per stream with deterministic
//!   per-stream initial state,
//! * step the same `ticks` of per-stream sinusoid measurements,
//! * record a suppression verdict per stream per tick (max-norm `|ẑ − z| ≤
//!   δ`, the protocol's decision) and then update on the measurement,
//! * digest every stream's final state, covariance, staleness, and verdict
//!   count bit-for-bit.
//!
//! The digests must match exactly ([`FleetBatchRun::matches`]);
//! `check_regression` fails the build if they ever don't.

use kalstream_filter::{models, DynFleetBatch, KalmanFilter, StateModel};
use kalstream_linalg::{Matrix, Vector};

/// Outcome of one scalar-vs-batch fleet comparison.
#[derive(Debug, Clone)]
pub struct FleetBatchRun {
    /// Whether the batch digest (states, covariances, staleness, verdict
    /// counts) matched the scalar digest bit for bit.
    pub matches: bool,
    /// Total suppression verdicts that said "within bound" (same on both
    /// paths whenever `matches`).
    pub suppressed: u64,
}

/// Fleet digest: everything that must be bit-identical across paths.
#[derive(PartialEq)]
struct Digest {
    bits: Vec<u64>,
    suppressed: u64,
}

/// The shared workload model (2-state constant velocity, the dominant
/// batchable shape).
fn fleet_model() -> StateModel {
    models::constant_velocity(1.0, 0.05, 0.1)
}

const DELTA: f64 = 0.05;

fn x0(stream: usize) -> Vector {
    let s = stream as f64;
    Vector::from_slice(&[(s * 0.7).sin(), (s * 1.3).cos() * 0.1])
}

fn p0() -> Matrix {
    Matrix::scalar(2, 1.0)
}

fn measurement(stream: usize, t: u64) -> f64 {
    let s = stream as f64;
    (t as f64 * 0.1 + s * 0.37).sin() * (1.0 + (stream % 13) as f64 * 0.01)
}

fn run_scalar(streams: usize, ticks: u64, model: &StateModel) -> Digest {
    let mut filters: Vec<KalmanFilter> = (0..streams)
        .map(|s| KalmanFilter::with_covariance(model.clone(), x0(s), p0()).expect("fleet filter"))
        .collect();
    let mut suppressed = 0u64;
    for t in 0..ticks {
        for (i, kf) in filters.iter_mut().enumerate() {
            kf.predict().expect("predict");
            let z = Vector::from_slice(&[measurement(i, t)]);
            if kf.predicted_measurement().max_abs_diff(&z) <= DELTA {
                suppressed += 1;
            }
            kf.update(&z).expect("update");
        }
    }
    let mut bits = Vec::with_capacity(streams * 7);
    for kf in &filters {
        bits.extend(kf.state().iter().map(|v| v.to_bits()));
        bits.extend(kf.covariance().as_slice().iter().map(|v| v.to_bits()));
        bits.push(kf.steps_since_update());
    }
    Digest { bits, suppressed }
}

fn run_batch(streams: usize, ticks: u64, model: &StateModel) -> Digest {
    let mut batch = DynFleetBatch::for_model(model).expect("batchable model");
    for s in 0..streams {
        batch.push(&x0(s), &p0(), 0).expect("lane");
    }
    let mut z = vec![0.0f64; streams]; // plane-major; measurement_dim is 1
    let mut verdicts = vec![false; streams];
    let mut suppressed = 0u64;
    for t in 0..ticks {
        for (i, slot) in z.iter_mut().enumerate() {
            *slot = measurement(i, t);
        }
        batch.predict_all();
        batch
            .suppression_verdicts_into(&z, DELTA, &mut verdicts)
            .expect("verdicts");
        suppressed += verdicts.iter().filter(|v| **v).count() as u64;
        batch.update_all(&z).expect("update");
    }
    let mut bits = Vec::with_capacity(streams * 7);
    for lane in 0..streams {
        let kf = batch.lane_filter(lane, model.name());
        bits.extend(kf.state().iter().map(|v| v.to_bits()));
        bits.extend(kf.covariance().as_slice().iter().map(|v| v.to_bits()));
        bits.push(kf.steps_since_update());
    }
    Digest { bits, suppressed }
}

/// Runs the scalar and batch fleets over the same workload and compares
/// their digests bit for bit.
///
/// # Panics
/// Panics when `streams` or `ticks` is zero, or on filter construction /
/// stepping failures (the workload is well-conditioned by construction).
#[must_use]
pub fn run_fleet_batch(streams: usize, ticks: u64) -> FleetBatchRun {
    assert!(streams > 0 && ticks > 0, "empty fleet");
    let model = fleet_model();
    let scalar = run_scalar(streams, ticks, &model);
    let batch = run_batch(streams, ticks, &model);
    FleetBatchRun {
        matches: scalar == batch,
        suppressed: batch.suppressed,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn batch_and_scalar_fleets_agree_bit_for_bit() {
        let run = run_fleet_batch(37, 120);
        assert!(run.matches, "digest mismatch");
        assert!(run.suppressed > 0, "workload produced no suppressions");
        assert!(
            run.suppressed < 37 * 120,
            "workload suppressed every tick — verdicts untested"
        );
    }
}
