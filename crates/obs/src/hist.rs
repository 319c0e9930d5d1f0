//! Fixed-bucket log₂ histogram.

/// Number of buckets in a [`Histogram`]. Fixed so recording never
/// allocates and two histograms always merge bucket-for-bucket.
pub const HISTOGRAM_BUCKETS: usize = 64;

/// A log₂ fixed-bucket histogram of `u64` samples (typically nanoseconds).
///
/// Bucket layout:
///
/// * bucket `0` holds exactly the value `0`;
/// * bucket `i` for `1 ≤ i ≤ 62` holds values in `[2^(i-1), 2^i)`;
/// * bucket `63` holds everything from `2^62` up.
///
/// Recording is branch-light integer arithmetic on inline storage — no
/// allocation, ever — so the timer API can sit inside the ingest and
/// filter hot paths without perturbing the allocation-freedom gate
/// (`bench_smoke`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Histogram {
    count: u64,
    sum: u64,
    max: u64,
    buckets: [u64; HISTOGRAM_BUCKETS],
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram::new()
    }
}

impl Histogram {
    /// A fresh, empty histogram.
    #[must_use]
    pub const fn new() -> Self {
        Histogram {
            count: 0,
            sum: 0,
            max: 0,
            buckets: [0; HISTOGRAM_BUCKETS],
        }
    }

    /// Index of the bucket that holds `value`.
    #[must_use]
    pub fn bucket_index(value: u64) -> usize {
        if value == 0 {
            0
        } else {
            ((64 - value.leading_zeros()) as usize).min(HISTOGRAM_BUCKETS - 1)
        }
    }

    /// Exclusive upper bound of bucket `index` (inclusive for bucket 0,
    /// saturated to `u64::MAX` for the open-ended last bucket).
    ///
    /// # Panics
    /// Panics when `index ≥ HISTOGRAM_BUCKETS`.
    #[must_use]
    pub fn bucket_bound(index: usize) -> u64 {
        assert!(index < HISTOGRAM_BUCKETS, "bucket index out of range");
        match index {
            0 => 0,
            i if i == HISTOGRAM_BUCKETS - 1 => u64::MAX,
            i => 1u64 << i,
        }
    }

    /// Records one sample.
    pub fn record(&mut self, value: u64) {
        self.count += 1;
        self.sum = self.sum.saturating_add(value);
        self.max = self.max.max(value);
        self.buckets[Self::bucket_index(value)] += 1;
    }

    /// Number of samples recorded.
    #[must_use]
    pub const fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all samples (saturating).
    #[must_use]
    pub const fn sum(&self) -> u64 {
        self.sum
    }

    /// Largest sample seen (0 when empty).
    #[must_use]
    pub const fn max(&self) -> u64 {
        self.max
    }

    /// Mean sample, or 0.0 when empty.
    #[must_use]
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// The raw bucket counts.
    #[must_use]
    pub fn buckets(&self) -> &[u64; HISTOGRAM_BUCKETS] {
        &self.buckets
    }

    /// Upper bound of the bucket containing the `q`-quantile (`0 ≤ q ≤ 1`),
    /// or 0 when empty. Coarse by construction — log₂ buckets bound the
    /// answer to within 2× — which is the right fidelity for a regression
    /// gate and costs nothing to maintain.
    #[must_use]
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = (q.clamp(0.0, 1.0) * self.count as f64).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= rank {
                return Self::bucket_bound(i);
            }
        }
        Self::bucket_bound(HISTOGRAM_BUCKETS - 1)
    }

    /// Folds another histogram in (fleet aggregation): counts, sums, and
    /// buckets add; max takes the max.
    pub fn merge(&mut self, other: &Histogram) {
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
        self.max = self.max.max(other.max);
        for (b, o) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *b += o;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_boundaries_are_exact_powers_of_two() {
        // Bucket 0 is exactly zero.
        assert_eq!(Histogram::bucket_index(0), 0);
        // Bucket i covers [2^(i-1), 2^i): both edges of every bucket.
        for i in 1..=62usize {
            let lo = 1u64 << (i - 1);
            let hi_minus_one = (1u64 << i) - 1;
            assert_eq!(Histogram::bucket_index(lo), i, "lower edge of bucket {i}");
            assert_eq!(
                Histogram::bucket_index(hi_minus_one),
                i,
                "upper edge of bucket {i}"
            );
        }
        // Everything from 2^62 lands in the open-ended final bucket.
        assert_eq!(Histogram::bucket_index(1u64 << 62), 63);
        assert_eq!(Histogram::bucket_index(u64::MAX), 63);
    }

    #[test]
    fn bucket_bounds_match_indices() {
        assert_eq!(Histogram::bucket_bound(0), 0);
        assert_eq!(Histogram::bucket_bound(1), 2);
        assert_eq!(Histogram::bucket_bound(10), 1024);
        assert_eq!(Histogram::bucket_bound(HISTOGRAM_BUCKETS - 1), u64::MAX);
        // bound(index(v)) > v for all nonzero v below the last bucket.
        for v in [1u64, 2, 3, 7, 1023, 1024, (1 << 61) + 1] {
            assert!(
                Histogram::bucket_bound(Histogram::bucket_index(v)) > v,
                "v = {v}"
            );
        }
    }

    #[test]
    fn record_tracks_count_sum_max() {
        let mut h = Histogram::new();
        for v in [0u64, 1, 5, 1000] {
            h.record(v);
        }
        assert_eq!(h.count(), 4);
        assert_eq!(h.sum(), 1006);
        assert_eq!(h.max(), 1000);
        assert_eq!(h.mean(), 251.5);
        assert_eq!(h.buckets()[0], 1);
        assert_eq!(h.buckets()[1], 1); // 1
        assert_eq!(h.buckets()[3], 1); // 5 ∈ [4, 8)
        assert_eq!(h.buckets()[10], 1); // 1000 ∈ [512, 1024)
    }

    #[test]
    fn quantile_is_bucket_upper_bound() {
        let mut h = Histogram::new();
        for _ in 0..99 {
            h.record(3); // bucket 2, bound 4
        }
        h.record(1 << 20); // bucket 21
        assert_eq!(h.quantile(0.5), 4);
        assert_eq!(h.quantile(0.99), 4);
        assert_eq!(h.quantile(1.0), 1 << 21);
        assert_eq!(Histogram::new().quantile(0.5), 0);
    }

    #[test]
    fn merge_adds_bucketwise() {
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        a.record(3);
        a.record(100);
        b.record(3);
        b.record(1 << 40);
        a.merge(&b);
        assert_eq!(a.count(), 4);
        assert_eq!(a.max(), 1 << 40);
        assert_eq!(a.buckets()[2], 2);
        let mut direct = Histogram::new();
        for v in [3u64, 100, 3, 1 << 40] {
            direct.record(v);
        }
        assert_eq!(a, direct, "merge must equal recording the union");
    }
}
