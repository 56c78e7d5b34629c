//! Order statistics over timing samples.
//!
//! Every timing the benchmark prints is a median or a fixed percentile, with
//! the number of samples behind it.

/// The tail percentile of the latency metrics. Fixed, so records compare;
/// [`p95`] refuses it on fewer than [`P95_MIN_SAMPLES`] samples.
pub const TAIL: f64 = 95.0;
pub const P95_MIN_SAMPLES: usize = 200;

fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted
}

/// The median (mean of the middle two for an even count).
///
/// # Panics
///
/// Panics on an empty slice: a metric without samples is a harness bug.
pub fn median(samples: &[f64]) -> f64 {
    assert!(!samples.is_empty(), "median of no samples");
    let sorted = sorted(samples);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// The 1-based rank of the `p`-th percentile among `n` samples: the least
/// `k` with `k / n >= p %` (less a hair, so that 99.9 % of 10 000 is rank
/// 9 990 despite `99.9 / 100` not being exact).
fn rank(n: usize, p: f64) -> usize {
    ((p / 100.0 * n as f64 - 1e-9).ceil() as usize).clamp(1, n)
}

/// The nearest-rank `p`-th percentile: the smallest sample with at least
/// `p` % of the samples at or below it.
pub fn nearest_rank(samples: &[f64], p: f64) -> f64 {
    assert!(!samples.is_empty(), "percentile of no samples");
    let sorted = sorted(samples);
    sorted[rank(sorted.len(), p) - 1]
}

/// The [`TAIL`] percentile of request latencies.
///
/// # Panics
///
/// Panics below [`P95_MIN_SAMPLES`] samples, where a p95 is one of the ten
/// largest samples and says little.
pub fn p95(samples: &[f64]) -> f64 {
    assert!(
        samples.len() >= P95_MIN_SAMPLES,
        "p95 needs {P95_MIN_SAMPLES} samples, got {}",
        samples.len()
    );
    nearest_rank(samples, TAIL)
}

/// The highest percentile of the usual ladder that still has at least ten
/// samples beyond it, and its value; `None` below twenty samples.
pub fn highest_supported(samples: &[f64]) -> Option<(f64, f64)> {
    const LADDER: [f64; 6] = [50.0, 90.0, 95.0, 99.0, 99.9, 99.99];
    let n = samples.len();
    LADDER
        .iter()
        .rev()
        .find(|&&p| n > 0 && n - rank(n, p) >= 10)
        .map(|&p| (p, nearest_rank(samples, p)))
}

/// The quartiles as Python's `statistics.quantiles(values, n=4)` gives them
/// (the exclusive method), which is how the benchmark's contract measures
/// run-to-run spread.
pub fn quartiles(samples: &[f64]) -> [f64; 3] {
    assert!(samples.len() >= 2, "quartiles need two samples");
    let sorted = sorted(samples);
    let n = sorted.len();
    [1, 2, 3].map(|k| {
        let position = k * (n + 1);
        let below = (position / 4).clamp(1, n - 1);
        // Outside the samples the outer quartiles extrapolate, as Python's do.
        let fraction = position as f64 / 4.0 - below as f64;
        sorted[below - 1] + fraction * (sorted[below] - sorted[below - 1])
    })
}

/// Interquartile range as a share of the median.
pub fn spread(samples: &[f64]) -> f64 {
    let [q1, q2, q3] = quartiles(samples);
    (q3 - q1) / q2
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        // Deliberately unsorted.
        (0..n).map(|i| ((i * 7919) % n) as f64 + 1.0).collect()
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[5.0]), 5.0);
    }

    #[test]
    fn nearest_rank_picks_a_sample() {
        let samples = ramp(200);
        assert_eq!(nearest_rank(&samples, 95.0), 190.0);
        assert_eq!(nearest_rank(&samples, 50.0), 100.0);
        assert_eq!(nearest_rank(&samples, 100.0), 200.0);
        assert_eq!(nearest_rank(&[1.0, 2.0, 3.0, 4.0, 5.0], 95.0), 5.0);
    }

    #[test]
    fn p95_accepts_two_hundred_samples() {
        assert_eq!(p95(&ramp(200)), 190.0);
    }

    #[test]
    #[should_panic(expected = "p95 needs 200 samples")]
    fn p95_refuses_fewer() {
        p95(&ramp(199));
    }

    #[test]
    fn highest_supported_keeps_ten_samples_beyond() {
        assert_eq!(highest_supported(&ramp(19)), None);
        assert_eq!(highest_supported(&ramp(20)), Some((50.0, 10.0)));
        assert_eq!(highest_supported(&ramp(100)), Some((90.0, 90.0)));
        assert_eq!(highest_supported(&ramp(200)), Some((95.0, 190.0)));
        assert_eq!(highest_supported(&ramp(1_000)), Some((99.0, 990.0)));
        assert_eq!(highest_supported(&ramp(10_000)), Some((99.9, 9_990.0)));
    }

    #[test]
    fn quartiles_match_pythons_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), [2.75, 5.5, 8.25]);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]: the outer
        // quartiles extrapolate.
        assert_eq!(quartiles(&[1.0, 2.0]), [0.75, 1.5, 2.25]);
        assert!((spread(&ten) - 1.0).abs() < 1e-12);
    }
}
