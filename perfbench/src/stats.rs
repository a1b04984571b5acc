//! Order statistics for timing samples.
//!
//! Every timing the benchmark prints is a [`Summary`]: its median, its
//! quartiles and its sample count. Tail percentiles go through
//! [`tail`], which refuses a percentile that fewer than
//! [`MIN_BEYOND`] samples lie beyond — a p99 of 50 samples is just the
//! slowest sample, not a tail.

/// Samples that must lie strictly beyond a reported tail percentile.
pub const MIN_BEYOND: usize = 10;

/// Median and quartiles of one sample set.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Number of samples.
    pub n: usize,
    /// Median (mean of the two middle samples for an even count).
    pub median: f64,
    /// First quartile.
    pub q1: f64,
    /// Third quartile.
    pub q3: f64,
}

impl Summary {
    /// Summarizes `samples`; `None` when there are none.
    ///
    /// Quartiles use the same "exclusive" interpolation as Python's
    /// `statistics.quantiles(values, n=4)`, so a spread computed here
    /// matches one computed from the printed samples there.
    pub fn of(samples: &[f64]) -> Option<Summary> {
        let mut s = samples.to_vec();
        s.sort_by(f64::total_cmp);
        let n = s.len();
        if n == 0 {
            return None;
        }
        let median = if n % 2 == 1 {
            s[n / 2]
        } else {
            (s[n / 2 - 1] + s[n / 2]) / 2.0
        };
        let (q1, q3) = if n == 1 {
            (s[0], s[0])
        } else {
            (quartile(&s, 1), quartile(&s, 3))
        };
        Some(Summary { n, median, q1, q3 })
    }
}

/// Python's `statistics.quantiles(method="exclusive", n=4)` cut `i`
/// over sorted data of at least two samples.
fn quartile(sorted: &[f64], i: usize) -> f64 {
    let n = sorted.len();
    let m = n + 1;
    let j = (i * m / 4).clamp(1, n - 1);
    let delta = (i * m) as f64 - (j * 4) as f64;
    (sorted[j - 1] * (4.0 - delta) + sorted[j] * delta) / 4.0
}

/// Samples strictly beyond the nearest-rank `p`-th percentile of `n`
/// samples.
pub fn beyond(n: usize, p: f64) -> usize {
    n - rank(n, p)
}

/// The 1-based nearest rank of the `p`-th percentile of `n` samples
/// (the small slack absorbs binary rounding of `p * n / 100`).
fn rank(n: usize, p: f64) -> usize {
    ((p * n as f64 / 100.0 - 1e-6).ceil() as usize).clamp(1, n.max(1))
}

/// The nearest-rank `p`-th percentile of `samples`, or `None` when
/// fewer than [`MIN_BEYOND`] samples lie beyond it.
pub fn tail(samples: &[f64], p: f64) -> Option<f64> {
    if samples.is_empty() || beyond(samples.len(), p) < MIN_BEYOND {
        return None;
    }
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    Some(s[rank(s.len(), p) - 1])
}

/// The highest of the usual tail percentiles that `n` samples support.
pub fn highest_supported(n: usize) -> Option<f64> {
    [99.9, 99.0, 95.0, 90.0, 75.0, 50.0]
        .into_iter()
        .find(|&p| beyond(n, p) >= MIN_BEYOND)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let s = Summary::of(&v).unwrap();
        assert_eq!((s.q1, s.median, s.q3), (2.75, 5.5, 8.25));
        // statistics.quantiles([3, 1, 2, 5, 4], n=4) == [1.5, 3.0, 4.5]
        let s = Summary::of(&[3.0, 1.0, 2.0, 5.0, 4.0]).unwrap();
        assert_eq!((s.q1, s.median, s.q3, s.n), (1.5, 3.0, 4.5, 5));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        let s = Summary::of(&[2.0, 1.0]).unwrap();
        assert_eq!((s.q1, s.median, s.q3), (0.75, 1.5, 2.25));
    }

    #[test]
    fn degenerate_inputs() {
        assert_eq!(Summary::of(&[]), None);
        let s = Summary::of(&[4.0]).unwrap();
        assert_eq!((s.q1, s.median, s.q3), (4.0, 4.0, 4.0));
    }

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(tail(&v, 99.0), Some(990.0));
        assert_eq!(beyond(1000, 99.0), 10);
        // One sample fewer and p99 has only nine samples beyond it.
        assert_eq!(tail(&v[..999], 99.0), None);
        assert_eq!(tail(&v[..200], 95.0), Some(190.0));
        assert_eq!(tail(&v[..199], 95.0), None);
        assert_eq!(tail(&[], 50.0), None);
    }

    #[test]
    fn highest_supported_percentile() {
        assert_eq!(highest_supported(10_000), Some(99.9));
        assert_eq!(highest_supported(1000), Some(99.0));
        assert_eq!(highest_supported(999), Some(95.0));
        assert_eq!(highest_supported(20), Some(50.0));
        assert_eq!(highest_supported(19), None);
    }
}
