//! Exact order statistics over raw sample lists.
//!
//! Every percentile the benchmark reports is computed here from the full
//! list of observations (outcome latencies, wave times, pass times), never
//! from a bucketed histogram, and always travels with its sample count.

/// The percentiles a tail may be reported at, highest first.
pub const TAIL_LADDER: [f64; 5] = [99.9, 99.0, 90.0, 75.0, 50.0];

/// Samples that must lie strictly beyond a percentile for it to be
/// reported as a tail.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank percentile of an ascending slice: the smallest sample
/// with at least `p` percent of the samples at or below it.
///
/// # Panics
///
/// On an empty slice or `p` outside `(0, 100]`.
pub fn percentile<T: Copy>(sorted: &[T], p: f64) -> T {
    sorted[rank(sorted.len(), p) - 1]
}

/// 1-based nearest rank of percentile `p` among `n` samples.
pub fn rank(n: usize, p: f64) -> usize {
    assert!(n > 0, "percentile of an empty sample");
    assert!(p > 0.0 && p <= 100.0, "percentile {p} out of range");
    // The epsilon keeps exact products such as 0.99 * 1000 from
    // rounding up to the next rank.
    ((p / 100.0 * n as f64 - 1e-9).ceil() as usize).clamp(1, n)
}

/// Samples strictly beyond the nearest-rank percentile `p`.
pub fn beyond(n: usize, p: f64) -> usize {
    n - rank(n, p)
}

/// The highest percentile of [`TAIL_LADDER`] with at least
/// [`MIN_BEYOND`] samples beyond it, or `None` if even the median has
/// fewer.
pub fn tail_percentile(n: usize) -> Option<f64> {
    if n == 0 {
        return None;
    }
    TAIL_LADDER
        .into_iter()
        .find(|&p| beyond(n, p) >= MIN_BEYOND)
}

/// Whether `n` samples support reporting percentile `p` as a tail.
pub fn supports(n: usize, p: f64) -> bool {
    n > 0 && beyond(n, p) >= MIN_BEYOND
}

/// Median of unsorted floats (the mean of the two middle values for an
/// even count, as Python's `statistics.median`).
///
/// # Panics
///
/// On an empty slice or a NaN sample.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of an empty sample");
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("no NaN samples"));
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Sorted copy of integer samples.
pub fn sorted(values: &[u64]) -> Vec<u64> {
    let mut v = values.to_vec();
    v.sort_unstable();
    v
}

/// Sorted copy of float samples.
pub fn sorted_f64(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("no NaN samples"));
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_matches_hand_computed_values() {
        let v: Vec<u64> = (1..=10).collect();
        assert_eq!(percentile(&v, 50.0), 5);
        assert_eq!(percentile(&v, 90.0), 9);
        assert_eq!(percentile(&v, 99.0), 10);
        assert_eq!(percentile(&v, 100.0), 10);
        assert_eq!(percentile(&v, 0.1), 1);
        let one = [42u64];
        assert_eq!(percentile(&one, 99.9), 42);
    }

    #[test]
    fn exact_percentiles_are_not_bucket_edges() {
        // A log2 histogram reports 16383 for every value in
        // [8192, 16383]; the exact rule returns the sample itself.
        let v: Vec<u64> = (0..1000).map(|i| 9000 + i).collect();
        assert_eq!(percentile(&v, 50.0), 9499);
        assert_eq!(percentile(&v, 99.0), 9989);
    }

    #[test]
    fn rank_of_exact_products_does_not_round_up() {
        assert_eq!(rank(1000, 99.0), 990);
        assert_eq!(beyond(1000, 99.0), 10);
        assert_eq!(rank(100, 90.0), 90);
        assert_eq!(rank(3, 50.0), 2);
    }

    #[test]
    fn tail_is_the_highest_percentile_with_ten_samples_beyond() {
        assert_eq!(tail_percentile(0), None);
        assert_eq!(tail_percentile(19), None);
        assert_eq!(tail_percentile(20), Some(50.0));
        assert_eq!(tail_percentile(40), Some(75.0));
        assert_eq!(tail_percentile(99), Some(75.0));
        assert_eq!(tail_percentile(100), Some(90.0));
        assert_eq!(tail_percentile(999), Some(90.0));
        assert_eq!(tail_percentile(1000), Some(99.0));
        assert_eq!(tail_percentile(9999), Some(99.0));
        assert_eq!(tail_percentile(10_000), Some(99.9));
        assert!(supports(1000, 99.0));
        assert!(!supports(999, 99.0));
        assert!(supports(100, 90.0));
        assert!(!supports(0, 50.0));
    }

    #[test]
    fn median_averages_the_middle_pair() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }
}
