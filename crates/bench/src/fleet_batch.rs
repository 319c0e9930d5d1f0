//! Fleet-scale filter stepping: scalar per-stream filters vs the
//! structure-of-arrays batch kernels, on identical deterministic workloads.
//!
//! What this module checks is the identity `BENCH_kernels.json` gates:
//! packing same-model streams into `FleetBatch` lanes and stepping
//! predict → update → suppression-decision a chunk of lanes at a time
//! leaves **bit-identical output** to stepping each `KalmanFilter`
//! individually. It also times both sides; the ratio is printed, not
//! gated (a wall-clock ratio on a shared host is noise — the pinned
//! `filter.batch.step_ns_per_lane` / `linalg.static_kernel.step_ns` pair of
//! the `benchmark/` crate's traced run is the speed evidence). Both
//! runners:
//!
//! * build one constant-velocity filter per stream with deterministic
//!   per-stream initial state,
//! * step the same `ticks` of per-stream sinusoid measurements,
//! * record a suppression verdict per stream per tick (max-norm `|ẑ − z| ≤
//!   δ`, the protocol's decision) and then update on the measurement,
//! * digest every stream's final state, covariance, staleness, and verdict
//!   count bit-for-bit.
//!
//! Threading is identical on both sides — streams are chunked across the
//! same number of worker threads — so the printed ratio isolates the
//! kernel layout, not parallelism. The digests must match exactly
//! ([`FleetBatchRun::matches`]); `check_regression` fails the build if they
//! ever don't.

use std::time::{Duration, Instant};

use kalstream_filter::{models, DynFleetBatch, KalmanFilter, StateModel};
use kalstream_linalg::{Matrix, Vector};

/// Outcome of one scalar-vs-batch fleet comparison.
#[derive(Debug, Clone)]
pub struct FleetBatchRun {
    /// Streams stepped (one filter / lane each).
    pub streams: usize,
    /// Ticks stepped per stream.
    pub ticks: u64,
    /// Worker threads used by both paths.
    pub threads: usize,
    /// Wall time of the scalar path, milliseconds.
    pub scalar_wall_ms: f64,
    /// Wall time of the batch path, milliseconds.
    pub batch_wall_ms: f64,
    /// `scalar_wall_ms / batch_wall_ms`.
    pub speedup: f64,
    /// Mean batch predict cost per stream-step, nanoseconds (thread CPU
    /// summed across workers, divided by `streams × ticks`).
    pub batch_predict_ns: f64,
    /// Mean batch update cost per stream-step, nanoseconds.
    pub batch_update_ns: f64,
    /// Whether the batch digest (states, covariances, staleness, verdict
    /// counts) matched the scalar digest bit for bit.
    pub matches: bool,
    /// Total suppression verdicts that said "within bound" (same on both
    /// paths whenever `matches`).
    pub suppressed: u64,
}

/// Per-chunk digest: everything that must be bit-identical across paths.
struct ChunkDigest {
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

/// Chunks `streams` across `threads` as evenly as possible.
fn chunks(streams: usize, threads: usize) -> Vec<(usize, usize)> {
    let threads = threads.max(1).min(streams.max(1));
    let base = streams / threads;
    let extra = streams % threads;
    let mut out = Vec::with_capacity(threads);
    let mut lo = 0;
    for i in 0..threads {
        let len = base + usize::from(i < extra);
        out.push((lo, lo + len));
        lo += len;
    }
    out
}

fn run_scalar_chunk(lo: usize, hi: usize, ticks: u64, model: &StateModel) -> ChunkDigest {
    let mut filters: Vec<KalmanFilter> = (lo..hi)
        .map(|s| KalmanFilter::with_covariance(model.clone(), x0(s), p0()).expect("fleet filter"))
        .collect();
    let mut suppressed = 0u64;
    for t in 0..ticks {
        for (i, kf) in filters.iter_mut().enumerate() {
            kf.predict().expect("predict");
            let z = Vector::from_slice(&[measurement(lo + i, t)]);
            if kf.predicted_measurement().max_abs_diff(&z) <= DELTA {
                suppressed += 1;
            }
            kf.update(&z).expect("update");
        }
    }
    let mut bits = Vec::with_capacity((hi - lo) * 7);
    for kf in &filters {
        bits.extend(kf.state().iter().map(|v| v.to_bits()));
        bits.extend(kf.covariance().as_slice().iter().map(|v| v.to_bits()));
        bits.push(kf.steps_since_update());
    }
    ChunkDigest { bits, suppressed }
}

fn run_batch_chunk(
    lo: usize,
    hi: usize,
    ticks: u64,
    model: &StateModel,
) -> (ChunkDigest, Duration, Duration) {
    let mut batch = DynFleetBatch::for_model(model).expect("batchable model");
    for s in lo..hi {
        batch.push(&x0(s), &p0(), 0).expect("lane");
    }
    let len = hi - lo;
    let mut z = vec![0.0f64; len]; // plane-major; measurement_dim is 1
    let mut verdicts = vec![false; len];
    let mut suppressed = 0u64;
    let mut predict_time = Duration::ZERO;
    let mut update_time = Duration::ZERO;
    for t in 0..ticks {
        for (i, slot) in z.iter_mut().enumerate() {
            *slot = measurement(lo + i, t);
        }
        let t0 = Instant::now();
        batch.predict_all();
        predict_time += t0.elapsed();
        batch
            .suppression_verdicts_into(&z, DELTA, &mut verdicts)
            .expect("verdicts");
        suppressed += verdicts.iter().filter(|v| **v).count() as u64;
        let t0 = Instant::now();
        batch.update_all(&z).expect("update");
        update_time += t0.elapsed();
    }
    let mut bits = Vec::with_capacity(len * 7);
    for lane in 0..len {
        let (x, p, steps) = batch.lane_state(lane);
        bits.extend(x.iter().map(|v| v.to_bits()));
        bits.extend(p.as_slice().iter().map(|v| v.to_bits()));
        bits.push(steps);
    }
    (ChunkDigest { bits, suppressed }, predict_time, update_time)
}

/// Runs the scalar and batch fleets over the same workload and compares
/// their digests bit for bit.
///
/// # Panics
/// Panics when `streams` or `ticks` is zero, or on filter construction /
/// stepping failures (the workload is well-conditioned by construction).
#[must_use]
pub fn run_fleet_batch(streams: usize, ticks: u64, threads: usize) -> FleetBatchRun {
    assert!(streams > 0 && ticks > 0, "empty fleet");
    let model = fleet_model();
    let spans = chunks(streams, threads);
    let threads_used = spans.len();

    let start = Instant::now();
    let scalar: Vec<ChunkDigest> = std::thread::scope(|scope| {
        let handles: Vec<_> = spans
            .iter()
            .map(|&(lo, hi)| {
                let model = &model;
                scope.spawn(move || run_scalar_chunk(lo, hi, ticks, model))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("chunk"))
            .collect()
    });
    let scalar_wall_ms = start.elapsed().as_secs_f64() * 1e3;

    let start = Instant::now();
    let batch: Vec<(ChunkDigest, Duration, Duration)> = std::thread::scope(|scope| {
        let handles: Vec<_> = spans
            .iter()
            .map(|&(lo, hi)| {
                let model = &model;
                scope.spawn(move || run_batch_chunk(lo, hi, ticks, model))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("chunk"))
            .collect()
    });
    let batch_wall_ms = start.elapsed().as_secs_f64() * 1e3;

    let mut matches = true;
    let mut suppressed = 0u64;
    let mut predict_time = Duration::ZERO;
    let mut update_time = Duration::ZERO;
    for (s, (b, pt, ut)) in scalar.iter().zip(batch.iter()) {
        matches &= s.bits == b.bits && s.suppressed == b.suppressed;
        suppressed += b.suppressed;
        predict_time += *pt;
        update_time += *ut;
    }
    let steps = (streams as u64 * ticks) as f64;
    FleetBatchRun {
        streams,
        ticks,
        threads: threads_used,
        scalar_wall_ms,
        batch_wall_ms,
        speedup: scalar_wall_ms / batch_wall_ms,
        batch_predict_ns: predict_time.as_nanos() as f64 / steps,
        batch_update_ns: update_time.as_nanos() as f64 / steps,
        matches,
        suppressed,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn batch_and_scalar_fleets_agree_bit_for_bit() {
        let run = run_fleet_batch(37, 120, 2);
        assert!(run.matches, "digest mismatch");
        assert!(run.suppressed > 0, "workload produced no suppressions");
        assert!(
            run.suppressed < 37 * 120,
            "workload suppressed every tick — verdicts untested"
        );
        assert_eq!(run.threads, 2);
    }

    #[test]
    fn single_thread_and_odd_chunking_agree() {
        let a = run_fleet_batch(11, 60, 1);
        let b = run_fleet_batch(11, 60, 3);
        assert!(a.matches && b.matches);
        assert_eq!(
            a.suppressed, b.suppressed,
            "chunking must not change verdicts"
        );
    }

    #[test]
    fn chunks_cover_everything_once() {
        for (streams, threads) in [(10, 3), (1, 4), (8, 8), (100, 7)] {
            let spans = chunks(streams, threads);
            let mut covered = 0;
            let mut expect_lo = 0;
            for (lo, hi) in spans {
                assert_eq!(lo, expect_lo);
                assert!(hi > lo);
                covered += hi - lo;
                expect_lo = hi;
            }
            assert_eq!(covered, streams);
        }
    }
}
