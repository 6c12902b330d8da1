//! Order statistics over timing samples.

/// Median of `values` (mean of the two middle values for an even count).
///
/// # Panics
/// Panics on an empty slice.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// The upper quartile of `values` by nearest rank: the smallest value
/// with at least three quarters of all values at or below it.
///
/// # Panics
/// Panics on an empty slice.
pub fn upper_quartile(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "quartile of no samples");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v[rank(UPPER_QUARTILE_BP, v.len()) - 1]
}

/// Per item, the upper quartile (nearest rank) over `runs` of the same
/// items.
///
/// # Panics
/// Panics when `runs` is empty or the runs differ in length.
pub fn per_item_upper_quartile(runs: &[Vec<u64>]) -> Vec<u64> {
    assert!(!runs.is_empty(), "quartile of no runs");
    let n = runs[0].len();
    assert!(
        runs.iter().all(|r| r.len() == n),
        "runs of different lengths"
    );
    let mut column = Vec::with_capacity(runs.len());
    (0..n)
        .map(|i| {
            column.clear();
            column.extend(runs.iter().map(|r| r[i]));
            column.sort_unstable();
            percentile_sorted(&column, UPPER_QUARTILE_BP)
        })
        .collect()
}

/// The upper quartile, in basis points.
pub const UPPER_QUARTILE_BP: u64 = 7_500;

/// 1-based nearest rank of percentile `q` (in basis points, 1..=10 000)
/// among `n` samples, in exact integer arithmetic.
fn rank(q_bp: u64, n: usize) -> usize {
    let r = (q_bp * n as u64).div_ceil(10_000) as usize;
    r.clamp(1, n.max(1))
}

/// Nearest-rank percentile `q_bp` (basis points: 5 000 is the median,
/// 9 900 the 99th percentile) of ascending-sorted samples: the smallest
/// sample with at least that share of all samples at or below it.
///
/// # Panics
/// Panics on an empty slice.
pub fn percentile_sorted(sorted: &[u64], q_bp: u64) -> u64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    sorted[rank(q_bp, sorted.len()) - 1]
}

/// The percentiles a latency report may quote, lowest first, in basis
/// points.
pub const LADDER: [(u64, &str); 5] = [
    (5_000, "p50"),
    (9_000, "p90"),
    (9_900, "p99"),
    (9_990, "p99.9"),
    (9_999, "p99.99"),
];

/// The highest percentile of [`LADDER`] that leaves at least ten samples
/// beyond it, so a tail figure always rests on ten observations. `None`
/// when even the median would not (fewer than 20 samples).
pub fn highest_supported(n: usize) -> Option<(u64, &'static str)> {
    LADDER
        .iter()
        .rev()
        .find(|(q, _)| n >= 1 && n - rank(*q, n) >= 10)
        .copied()
}

/// A latency summary: median, the highest supported tail percentile and
/// the sample count both rest on.
#[derive(Debug, Clone, PartialEq)]
pub struct LatencySummary {
    pub samples: usize,
    pub p50_ns: u64,
    pub p99_ns: u64,
    /// `(label, value)` of [`highest_supported`], when one exists.
    pub top: Option<(&'static str, u64)>,
}

impl LatencySummary {
    /// Summarise `samples` (sorted in place).
    pub fn of(samples: &mut [u64]) -> Self {
        samples.sort_unstable();
        let top = highest_supported(samples.len())
            .map(|(q, label)| (label, percentile_sorted(samples, q)));
        LatencySummary {
            samples: samples.len(),
            p50_ns: percentile_sorted(samples, 5_000),
            p99_ns: percentile_sorted(samples, 9_900),
            top,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn upper_quartile_by_nearest_rank() {
        assert_eq!(upper_quartile(&[5.0]), 5.0);
        // Rank ⌈0.75 × 4⌉ = 3.
        assert_eq!(upper_quartile(&[4.0, 1.0, 3.0, 2.0]), 3.0);
        // Rank ⌈0.75 × 13⌉ = 10: three stalled samples lie beyond it.
        let mut v: Vec<f64> = (1..=10).map(f64::from).collect();
        v.extend([500.0, 900.0, 1e9]);
        assert_eq!(upper_quartile(&v), 10.0);
    }

    #[test]
    fn per_item_upper_quartile_over_runs() {
        // Four runs of the same three items; one run stalls on item 0
        // and another is fast on item 2.
        let runs = vec![
            vec![10, 20, 30],
            vec![900, 21, 31],
            vec![11, 19, 3],
            vec![12, 22, 32],
        ];
        assert_eq!(per_item_upper_quartile(&runs), vec![12, 21, 31]);
        assert_eq!(per_item_upper_quartile(&[vec![4], vec![2]]), vec![4]);
    }

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile_sorted(&v, 5_000), 50);
        assert_eq!(percentile_sorted(&v, 9_900), 99);
        assert_eq!(percentile_sorted(&v, 10_000), 100);
        assert_eq!(percentile_sorted(&[7], 9_990), 7);
    }

    #[test]
    fn highest_percentile_keeps_ten_samples_beyond_it() {
        // 19 samples: the median leaves only 9 beyond it.
        assert_eq!(highest_supported(19), None);
        assert_eq!(highest_supported(20).map(|p| p.1), Some("p50"));
        // p90 of 100 is rank 90: exactly 10 beyond.
        assert_eq!(highest_supported(100).map(|p| p.1), Some("p90"));
        assert_eq!(highest_supported(999).map(|p| p.1), Some("p90"));
        assert_eq!(highest_supported(1_000).map(|p| p.1), Some("p99"));
        assert_eq!(highest_supported(9_999).map(|p| p.1), Some("p99"));
        assert_eq!(highest_supported(10_000).map(|p| p.1), Some("p99.9"));
        assert_eq!(highest_supported(26_000).map(|p| p.1), Some("p99.9"));
        assert_eq!(highest_supported(100_000).map(|p| p.1), Some("p99.99"));
        // Never beyond the ladder's top rung.
        assert_eq!(highest_supported(10_000_000).map(|p| p.1), Some("p99.99"));
    }

    #[test]
    fn summary_reports_the_supported_tail() {
        let mut v: Vec<u64> = (1..=1_000).rev().collect();
        let s = LatencySummary::of(&mut v);
        assert_eq!(s.samples, 1_000);
        assert_eq!(s.p50_ns, 500);
        assert_eq!(s.p99_ns, 990);
        assert_eq!(s.top, Some(("p99", 990)));
    }
}
