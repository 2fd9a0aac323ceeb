//! Summary statistics and the derived-metric arithmetic of the benchmark.
//!
//! Everything here is pure arithmetic over numbers the harness measured or
//! read from `Stats`, so it is unit-tested in isolation.

/// Median, quartiles and sample count of a set of timings.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
    pub n: usize,
}

impl Summary {
    /// Summarizes `values` (any order). An empty slice summarizes to zeros.
    pub fn of(values: &[f64]) -> Summary {
        let mut v = values.to_vec();
        v.sort_by(f64::total_cmp);
        let (q1, q3) = quartiles(&v);
        Summary {
            median: median_sorted(&v),
            q1,
            q3,
            n: v.len(),
        }
    }

    /// Interquartile distance as a share of the median (0 when the median
    /// is 0).
    pub fn spread(&self) -> f64 {
        ratio(self.q3 - self.q1, self.median)
    }
}

fn median_sorted(v: &[f64]) -> f64 {
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// First and third quartile with the "exclusive" method of Python's
/// `statistics.quantiles(values, n=4)`, which is how the spread of a set of
/// runs is judged. `sorted` must be ascending; fewer than two values give
/// the single value (or 0) for both.
pub fn quartiles(sorted: &[f64]) -> (f64, f64) {
    let len = sorted.len();
    if len < 2 {
        let x = sorted.first().copied().unwrap_or(0.0);
        return (x, x);
    }
    let m = len + 1;
    let q = |i: usize| {
        let j = (i * m / 4).clamp(1, len - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (sorted[j - 1] * (4.0 - delta) + sorted[j] * delta) / 4.0
    };
    (q(1), q(3))
}

/// Nearest-rank percentile (`p` in 0..=100) of an ascending slice; 0 for an
/// empty slice.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// `num / den`, or 0 when the denominator is 0.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Mean stack-scan length of §5 top-clause decisions: `Σ r·f(r) / Σ f(r)`
/// over the skin-effect histogram `f` (`hist[r]` decisions were taken from
/// the conflict clause at distance `r` from the top of the stack).
pub fn top_scan_mean(hist: &[u64]) -> f64 {
    let weighted: u64 = hist.iter().enumerate().map(|(r, &f)| r as u64 * f).sum();
    let total: u64 = hist.iter().sum();
    ratio(weighted as f64, total as f64)
}

/// Share of the original clauses the preprocessor removed: `(before −
/// after) / before`, summed over simplifier runs. Runs that grew the
/// database count as negative removals.
pub fn clauses_removed_frac(runs: &[(u64, u64)]) -> f64 {
    let before: u64 = runs.iter().map(|&(b, _)| b).sum();
    let removed: i64 = runs.iter().map(|&(b, a)| b as i64 - a as i64).sum();
    ratio(removed as f64, before as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        // statistics.quantiles([1, 2, 3, 4], n=4) == [1.25, 2.5, 3.75]
        assert_eq!(quartiles(&[1.0, 2.0, 3.0, 4.0]), (1.25, 3.75));
        // statistics.quantiles([5, 7], n=4) == [4.5, 6.0, 7.5]
        assert_eq!(quartiles(&[5.0, 7.0]), (4.5, 7.5));
    }

    #[test]
    fn summary_reports_median_and_spread() {
        let s = Summary::of(&[3.0, 1.0, 2.0, 5.0, 4.0]);
        assert_eq!(s.median, 3.0);
        assert_eq!(s.n, 5);
        // quantiles([1..5]) == [1.5, 3.0, 4.5]
        assert_eq!((s.q1, s.q3), (1.5, 4.5));
        assert!((s.spread() - 1.0).abs() < 1e-12);
        assert_eq!(Summary::of(&[]).spread(), 0.0);
    }

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 10.0);
        assert_eq!(percentile(&v, 90.0), 18.0);
        assert_eq!(percentile(&v, 100.0), 20.0);
        assert_eq!(percentile(&[7.0], 90.0), 7.0);
        assert_eq!(percentile(&[], 90.0), 0.0);
    }

    #[test]
    fn top_scan_mean_from_a_known_histogram() {
        // f(0) = 6, f(1) = 3, f(3) = 1: (0·6 + 1·3 + 3·1) / 10 = 0.6
        assert!((top_scan_mean(&[6, 3, 0, 1]) - 0.6).abs() < 1e-12);
        assert_eq!(top_scan_mean(&[5]), 0.0);
        assert_eq!(top_scan_mean(&[]), 0.0);
    }

    #[test]
    fn clauses_removed_frac_sums_runs() {
        // 100 → 80 and 50 → 45: 25 of 150 removed.
        let f = clauses_removed_frac(&[(100, 80), (50, 45)]);
        assert!((f - 25.0 / 150.0).abs() < 1e-12);
        // A run that grew the database counts against the removals.
        let g = clauses_removed_frac(&[(10, 12)]);
        assert!((g + 0.2).abs() < 1e-12);
        assert_eq!(clauses_removed_frac(&[]), 0.0);
    }
}
