//! Order statistics the benchmark reports: medians, quartile spread, the
//! quiet end of repeated work and the tail percentile a sample can support.

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median; the mean of the two middle values for an even count.
///
/// # Panics
/// Panics on an empty slice: every caller reports a measured quantity, and
/// an empty sample means the measurement did not happen.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of an empty sample");
    let v = sorted(values);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Nearest-rank percentile: the smallest value with at least `q` of the
/// sample at or below it (`q` in `(0, 1]`).
pub fn percentile(values: &[f64], q: f64) -> f64 {
    assert!(!values.is_empty(), "percentile of an empty sample");
    let v = sorted(values);
    let rank = (q * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// First and third quartile exactly as Python's
/// `statistics.quantiles(values, n=4)` gives them (the exclusive method),
/// so the spread printed here is the spread the acceptance check computes.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    assert!(values.len() >= 2, "quartiles need two samples");
    let v = sorted(values);
    let n = v.len();
    let cut = |i: usize| {
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (cut(1), cut(3))
}

/// Share of a run's repetitions taken to have run undisturbed; see [`quiet`].
pub const QUIET_SHARE: f64 = 0.02;

/// The value a fiftieth of the way in from the better end of `values`
/// (nearest rank: the best of up to 50 values, the second best of 51 to
/// 100).
///
/// How a run sums up the timings it has no finer view of than one value
/// per repetition: its set-ups and its TCP stream phases. The host is
/// shared with other guests, which only ever slows a stretch of work — for
/// anything from a millisecond to minutes — so repetitions of the same work
/// have a hard floor, the machine left alone, and above it a slower mode
/// whose share changes from run to run. Any quantile that mode can reach
/// jumps when it does: over sets of 10 runs the spread between runs of the
/// 50 % / 10 % / 2 % point was 10 % / 3 % / 2 % with the host mostly quiet
/// and 5 % / 11 % / 6 % with it mostly disturbed. The bare minimum would
/// depend on how many repetitions a run holds.
pub fn quiet(values: &[f64], higher_is_better: bool) -> f64 {
    assert!(!values.is_empty(), "quiet value of an empty sample");
    let mut v = sorted(values);
    if higher_is_better {
        v.reverse();
    }
    let rank = (QUIET_SHARE * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// For every position, the smallest value any of the `repeats` holds there
/// (positions past the shortest repeat are dropped).
///
/// How a run sums up its per-tick timings. Its passes replay the same
/// ticks — bit for bit the same work, which the run checks — so the
/// smallest time tick *t* took in any pass is what that tick costs when
/// nothing disturbs it, and a tick is short enough (0.2–1.3 ms) to find
/// such a moment in one of 40 passes even while the host is busy.
pub fn quietest_per_tick<'a>(repeats: impl IntoIterator<Item = &'a [f64]>) -> Vec<f64> {
    let mut quietest: Option<Vec<f64>> = None;
    for repeat in repeats {
        match &mut quietest {
            None => quietest = Some(repeat.to_vec()),
            Some(q) => {
                q.truncate(repeat.len());
                for (least, &value) in q.iter_mut().zip(repeat) {
                    *least = least.min(value);
                }
            }
        }
    }
    quietest.expect("at least one repeat")
}

/// Interquartile range as a share of the median; 0 for fewer than two
/// samples.
pub fn spread(values: &[f64]) -> f64 {
    if values.len() < 2 {
        return 0.0;
    }
    let (q1, q3) = quartiles(values);
    (q3 - q1) / median(values)
}

/// The 99th percentile when at least ten samples lie beyond it, else NaN
/// (a tail read off fewer samples is noise, not a percentile).
pub fn p99(values: &[f64]) -> f64 {
    if values.len() < 1000 {
        return f64::NAN;
    }
    percentile(values, 0.99)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_even_and_unsorted() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn quiet_is_a_fiftieth_in_from_the_better_end() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        // The second best of a hundred, from either end.
        assert_eq!(quiet(&v, false), 2.0);
        assert_eq!(quiet(&v, true), 99.0);
        // A stall in nine tenths of the slices does not move it.
        let mut stalled = v.clone();
        for slow in stalled.iter_mut().skip(10) {
            *slow *= 100.0;
        }
        assert_eq!(quiet(&stalled, false), 2.0);
        // Up to fifty values: the best. From 51: the second best.
        assert_eq!(quiet(&[5.0], true), 5.0);
        assert_eq!(quiet(&[5.0, 7.0, 6.0], false), 5.0);
        assert_eq!(quiet(&[5.0, 7.0, 6.0], true), 7.0);
        assert_eq!(quiet(&v[..50], false), 1.0);
        assert_eq!(quiet(&v[..51], false), 2.0);
        assert_eq!(quiet(&v[..51], true), 50.0);
    }

    #[test]
    fn quietest_per_tick_takes_each_position_s_minimum() {
        let passes: [&[f64]; 3] = [&[5.0, 2.0, 9.0], &[4.0, 3.0, 7.0, 1.0], &[6.0, 1.0, 8.0]];
        // The fourth tick exists in one pass only: dropped.
        assert_eq!(quietest_per_tick(passes), vec![4.0, 1.0, 7.0]);
        assert_eq!(quietest_per_tick([&[3.0, 4.0][..]]), vec![3.0, 4.0]);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), 5.0);
        assert_eq!(percentile(&v, 0.9), 9.0);
        assert_eq!(percentile(&v, 0.91), 10.0);
        assert_eq!(percentile(&v, 1.0), 10.0);
        assert_eq!(percentile(&v, 0.01), 1.0);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        // statistics.quantiles([10, 20, 40, 80, 160], n=4) == [15, 40, 120]
        assert_eq!(quartiles(&[160.0, 10.0, 40.0, 20.0, 80.0]), (15.0, 120.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 2.25));
        assert_eq!(spread(&v), 5.5 / 5.5);
        assert_eq!(spread(&[3.0]), 0.0);
    }

    #[test]
    fn p99_needs_ten_samples_beyond_it() {
        let few: Vec<f64> = (0..999).map(f64::from).collect();
        assert!(p99(&few).is_nan());
        let enough: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(p99(&enough), 990.0);
    }
}
