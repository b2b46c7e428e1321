//! Percentile, median and quartile arithmetic.
//!
//! A run measures each workload several times over, every repetition on
//! a freshly set-up server, and reports per metric the median of the
//! values so gathered or the mean of their better third (which, and
//! why, is in `e2e.rs`).

/// The 1-based nearest rank of the `p`-quantile (0 ≤ p ≤ 1) among `n`
/// ascending samples: the smallest with at least `p` of them at or below.
fn rank(n: usize, p: f64) -> usize {
    ((p * n as f64).ceil() as usize).clamp(1, n)
}

/// The `p`-quantile of an ascending slice, nearest-rank.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    sorted[rank(sorted.len(), p) - 1]
}

/// Median of unsorted samples (mean of the two middle ones when even).
pub fn median(samples: &[f64]) -> f64 {
    assert!(!samples.is_empty(), "median of no samples");
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// First and third quartile, by the same "exclusive" method as Python's
/// `statistics.quantiles(values, n=4)` (the one the driver applies).
pub fn quartiles(samples: &[f64]) -> (f64, f64) {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n < 2 {
        let only = v.first().copied().unwrap_or(f64::NAN);
        return (only, only);
    }
    let cut = |i: usize| {
        let m = n + 1;
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 / 4.0 - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * delta
    };
    (cut(1), cut(3))
}

/// A reported number with the spread and sample count beside it.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Summary {
    /// The reported value (a median unless the metric is a count/ratio).
    pub value: f64,
    /// First quartile of whatever the value is the median of.
    pub q1: f64,
    /// Third quartile.
    pub q3: f64,
    /// Samples behind the value.
    pub samples: u64,
}

impl Summary {
    /// A single measured value with no spread of its own.
    pub fn exact(value: f64, samples: u64) -> Summary {
        Summary {
            value,
            q1: value,
            q3: value,
            samples,
        }
    }

    /// The mean of the better third of `values` (the lowest third where
    /// lower is better; rounded up to whole values), with the quartiles
    /// of all of them beside it; `samples` is what the values were drawn
    /// from.
    pub fn better_third(values: &[f64], higher_is_better: bool, samples: u64) -> Summary {
        assert!(!values.is_empty(), "summary of no values");
        let mut v = values.to_vec();
        v.sort_by(f64::total_cmp);
        if higher_is_better {
            v.reverse();
        }
        let third = &v[..v.len().div_ceil(3)];
        let (q1, q3) = quartiles(values);
        Summary {
            value: third.iter().sum::<f64>() / third.len() as f64,
            q1,
            q3,
            samples,
        }
    }

    /// Median and quartiles of `values`; `samples` is what they were
    /// drawn from.
    pub fn of(values: &[f64], samples: u64) -> Summary {
        let (q1, q3) = quartiles(values);
        Summary {
            value: median(values),
            q1,
            q3,
            samples,
        }
    }
}

/// Samples a quantile estimate wants beyond it.
const BEYOND: usize = 10;

/// True when fewer than ten of `n` samples lie beyond their `p`-quantile:
/// the estimate then rests on too few of them to hold still.
pub fn tail_is_thin(n: usize, p: f64) -> bool {
    n == 0 || n - rank(n, p) < BEYOND
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), 50.0);
        assert_eq!(percentile(&v, 0.99), 99.0);
        assert_eq!(percentile(&v, 1.0), 100.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&[7.0], 0.99), 7.0);
    }

    #[test]
    fn median_of_even_and_odd() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let (q1, q3) = quartiles(&v);
        assert!((q1 - 2.75).abs() < 1e-12 && (q3 - 8.25).abs() < 1e-12);
        // statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
        let (q1, q3) = quartiles(&[16.0, 1.0, 8.0, 2.0, 4.0]);
        assert!((q1 - 1.5).abs() < 1e-12 && (q3 - 12.0).abs() < 1e-12);
    }

    #[test]
    fn the_better_third_ignores_a_disturbed_majority() {
        // Nine windows, six of them disturbed.
        let latency = [10.0, 31.0, 10.5, 44.0, 29.0, 9.5, 52.0, 38.0, 61.0];
        let s = Summary::better_third(&latency, false, 9);
        assert_eq!(s.value, 10.0);
        assert!(s.q3 > 44.0, "the quartiles still show the disturbance");
        assert_eq!(
            Summary::of(&latency, 9).value,
            31.0,
            "the median reports it"
        );
        let rate = [100.0, 30.0, 98.0, 20.0, 35.0, 102.0, 18.0];
        assert_eq!(
            Summary::better_third(&rate, true, 7).value,
            100.0,
            "three of seven"
        );
    }

    #[test]
    fn a_tail_needs_ten_samples_beyond_it() {
        // 200 samples leave exactly ten beyond the p95; 199 do not.
        assert!(!tail_is_thin(200, 0.95));
        assert!(tail_is_thin(199, 0.95));
        assert!(!tail_is_thin(20, 0.5));
        assert!(tail_is_thin(0, 0.5));
    }
}
