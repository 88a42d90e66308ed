//! Order statistics for host-time samples: median, quartiles, and the
//! highest percentile a sample count can support.

/// Median of `xs` (mean of the middle two for an even count).
///
/// # Panics
/// Panics on an empty slice: a phase that never ran is a harness bug.
pub fn median(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "median of no samples");
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// The tenth percentile of `xs` (linear interpolation between ranks): the
/// wall time of the fastest tenth of the iterations.
///
/// Every iteration of a workload executes exactly the same simulated
/// work (the digest check proves it), so all spread between iterations
/// is the host's, and interference on a shared host only ever adds time.
/// Measured on the 2-core VM this was written on, the median of a phase
/// moved by up to 30% between 15-second runs while its tenth percentile
/// moved by 2%; host-time metrics are therefore computed from this, and
/// the median and quartiles are printed beside it.
///
/// # Panics
/// Panics on an empty slice: a phase that never ran is a harness bug.
pub fn fast_decile(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "fast decile of no samples");
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = (v.len() - 1) as f64 * 0.1;
    let lo = rank.floor() as usize;
    let hi = (lo + 1).min(v.len() - 1);
    v[lo] + (v[hi] - v[lo]) * (rank - lo as f64)
}

/// First, second and third quartile, computed the way Python's
/// `statistics.quantiles(xs, n=4)` (exclusive method) does, so the
/// spread this harness prints is the one the driver computes. Fewer than
/// two samples give the lone value three times.
pub fn quartiles(xs: &[f64]) -> [f64; 3] {
    assert!(!xs.is_empty(), "quartiles of no samples");
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let ld = v.len();
    if ld < 2 {
        return [v[0]; 3];
    }
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..=3usize) {
        let j = (i * (ld + 1) / 4).clamp(1, ld - 1);
        let delta = (i * (ld + 1)) as f64 - (j * 4) as f64;
        *slot = (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0;
    }
    out
}

/// The highest percentile that still has at least ten samples beyond it,
/// as `(percentile, value)`; `None` when that percentile would not lie
/// above the median (fewer than 21 samples).
pub fn highest_supported_percentile(xs: &[f64]) -> Option<(f64, f64)> {
    let n = xs.len();
    if n < 21 {
        return None;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    Some((100.0 * (n - 10) as f64 / n as f64, v[n - 11]))
}

/// What is printed for one host-time quantity.
#[derive(Debug, Clone, PartialEq)]
pub struct Summary {
    /// Sample count.
    pub n: usize,
    /// Median.
    pub median: f64,
    /// First quartile.
    pub q1: f64,
    /// Third quartile.
    pub q3: f64,
    /// Highest supported percentile and its value.
    pub tail: Option<(f64, f64)>,
}

impl Summary {
    /// Summarizes `xs`.
    pub fn of(xs: &[f64]) -> Summary {
        let [q1, _, q3] = quartiles(xs);
        Summary { n: xs.len(), median: median(xs), q1, q3, tail: highest_supported_percentile(xs) }
    }

    /// Interquartile range as a share of the median (the noise measure
    /// the regression bounds are compared against).
    pub fn spread(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1).abs() / self.median.abs()
        }
    }
}

/// Integer percentile over exact simulated samples: the value at rank
/// `(n - 1) * p / 100` of the sorted sample, the rule `FleetReport` uses.
pub fn exact_percentile(sorted: &[u64], p: u64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    sorted[((sorted.len() - 1) as u64 * p / 100) as usize]
}

/// Median of exact simulated samples, as a float so an even count can
/// land between two values.
pub fn exact_median(samples: &[u64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut v = samples.to_vec();
    v.sort_unstable();
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2] as f64
    } else {
        (v[n / 2 - 1] as f64 + v[n / 2] as f64) / 2.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_even() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn fast_decile_interpolates_on_the_fast_side() {
        let xs: Vec<f64> = (0..=10).rev().map(f64::from).collect();
        assert_eq!(fast_decile(&xs), 1.0);
        assert_eq!(fast_decile(&[5.0, 1.0, 3.0]), 1.4);
        assert_eq!(fast_decile(&[7.0]), 7.0);
        // A slow tail does not move it.
        assert_eq!(fast_decile(&[1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 9.0, 9.0, 9.0, 9.0, 9.0]), 1.0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&xs), [2.75, 5.5, 8.25]);
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[5.0, 1.0, 4.0, 2.0, 3.0]), [1.5, 3.0, 4.5]);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), [0.75, 1.5, 2.25]);
        assert_eq!(quartiles(&[9.0]), [9.0, 9.0, 9.0]);
    }

    #[test]
    fn highest_percentile_keeps_ten_samples_beyond() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(highest_supported_percentile(&xs), Some((90.0, 90.0)));
        let xs: Vec<f64> = (1..=40).map(f64::from).collect();
        assert_eq!(highest_supported_percentile(&xs), Some((75.0, 30.0)));
        let xs: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!(highest_supported_percentile(&xs), None);
    }

    #[test]
    fn summary_spread() {
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        let s = Summary::of(&xs);
        assert_eq!(s.n, 10);
        assert_eq!(s.median, 5.5);
        assert!((s.spread() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn exact_helpers() {
        assert_eq!(exact_percentile(&[1, 2, 3, 4, 5, 6, 7, 8, 9, 10], 99), 9);
        assert_eq!(exact_percentile(&[], 99), 0);
        assert_eq!(exact_median(&[4, 1, 3]), 3.0);
        assert_eq!(exact_median(&[4, 1]), 2.5);
    }
}
