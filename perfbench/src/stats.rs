//! Order statistics over host-time samples.

/// Percentiles tried, highest first, in tenths of a percent, when
/// choosing the tail a sample set can support.
const TAIL_CANDIDATES: [u64; 6] = [999, 990, 950, 900, 750, 500];

/// Samples that must lie strictly beyond a percentile for it to be
/// reported.
pub const TAIL_SAMPLES: usize = 10;

/// The `p`-th percentile (0..=100) of `sorted`, nearest-rank with linear
/// interpolation between neighbours. `sorted` must be ascending and
/// non-empty.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of an empty sample set");
    let rank = (p / 100.0) * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    let frac = rank - lo as f64;
    sorted[lo] + (sorted[hi] - sorted[lo]) * frac
}

/// Median of `values` (any order); 0 for an empty set.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    percentile(&sorted, 50.0)
}

/// The highest candidate percentile with at least [`TAIL_SAMPLES`]
/// samples beyond it among `n` samples, or `None` when even the median
/// is unsupported.
pub fn top_percentile(n: usize) -> Option<f64> {
    // Samples beyond p are n·(1000 - p)/1000; compare in integers.
    TAIL_CANDIDATES
        .into_iter()
        .find(|&p| n as u64 * (1000 - p) >= TAIL_SAMPLES as u64 * 1000)
        .map(|p| p as f64 / 10.0)
}

/// Median and supported tail of one timing distribution.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Samples summarised.
    pub n: usize,
    /// Median (0 without samples).
    pub p50: f64,
    /// The percentile [`Summary::top`] reports (0 when unsupported).
    pub top_p: f64,
    /// Value at the highest supported percentile (0 when unsupported).
    pub top: f64,
}

impl Summary {
    /// Summarises `values` (any order).
    pub fn of(values: &[f64]) -> Self {
        if values.is_empty() {
            return Summary {
                n: 0,
                p50: 0.0,
                top_p: 0.0,
                top: 0.0,
            };
        }
        let mut sorted = values.to_vec();
        sorted.sort_by(f64::total_cmp);
        let (top_p, top) = match top_percentile(sorted.len()) {
            Some(p) => (p, percentile(&sorted, p)),
            None => (0.0, 0.0),
        };
        Summary {
            n: sorted.len(),
            p50: percentile(&sorted, 50.0),
            top_p,
            top,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn top_percentile_keeps_ten_samples_beyond() {
        assert_eq!(top_percentile(0), None);
        assert_eq!(top_percentile(19), None);
        assert_eq!(top_percentile(20), Some(50.0));
        assert_eq!(top_percentile(39), Some(50.0));
        assert_eq!(top_percentile(40), Some(75.0));
        assert_eq!(top_percentile(100), Some(90.0));
        assert_eq!(top_percentile(199), Some(90.0));
        assert_eq!(top_percentile(200), Some(95.0));
        assert_eq!(top_percentile(999), Some(95.0));
        assert_eq!(top_percentile(1000), Some(99.0));
        assert_eq!(top_percentile(9_999), Some(99.0));
        assert_eq!(top_percentile(10_000), Some(99.9));
        for n in [20, 40, 100, 200, 1000, 10_000, 123_456] {
            let p = top_percentile(n).unwrap();
            let beyond = (n as f64) * (100.0 - p) / 100.0;
            assert!(
                beyond + 1e-9 >= TAIL_SAMPLES as f64,
                "n={n} p={p}: {beyond} beyond"
            );
        }
    }

    #[test]
    fn summary_reports_sample_count_and_tail() {
        let values: Vec<f64> = (1..=1000).map(f64::from).collect();
        let s = Summary::of(&values);
        assert_eq!(s.n, 1000);
        assert_eq!(s.top_p, 99.0);
        assert!((s.p50 - 500.5).abs() < 1e-9);
        assert!((s.top - 990.01).abs() < 1e-9);
        let empty = Summary::of(&[]);
        assert_eq!((empty.n, empty.p50, empty.top), (0, 0.0, 0.0));
        let few = Summary::of(&[3.0, 1.0, 2.0]);
        assert_eq!((few.n, few.p50, few.top_p), (3, 2.0, 0.0));
    }

    #[test]
    fn median_ignores_order() {
        assert_eq!(median(&[5.0, 1.0, 3.0]), 3.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }
}
