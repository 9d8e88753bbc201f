//! Statistical aggregation of multi-trial experiment results.
//!
//! The paper reports single-run curves; reviewers (and our own
//! regression suite) want error bars. Every multi-trial driver reduces
//! its per-trial scalars to an [`AggregateStats`] — sample count, mean,
//! unbiased standard deviation, and the half-width of the normal 95%
//! confidence interval — computed by folding trial values **in trial
//! order** through [`lv_sim::Summary`], so the result is bit-identical
//! no matter how many worker threads produced the trials.

use lv_sim::Summary;
use serde::Serialize;

/// Aggregate statistics of one metric across trials.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct AggregateStats {
    /// Number of trials that contributed a sample.
    pub n: u64,
    /// Sample mean.
    pub mean: f64,
    /// Unbiased (n−1) sample standard deviation.
    pub stddev: f64,
    /// Half-width of the 95% confidence interval of the mean
    /// (`1.96·s/√n`; zero for fewer than two samples).
    pub ci95: f64,
    /// Smallest per-trial value (NaN when `n == 0`).
    pub min: f64,
    /// Largest per-trial value (NaN when `n == 0`).
    pub max: f64,
}

impl AggregateStats {
    /// Reduce a finished [`Summary`].
    pub fn from_summary(s: &Summary) -> Self {
        AggregateStats {
            n: s.count(),
            mean: s.mean(),
            stddev: s.stddev(),
            ci95: s.ci95_half_width(),
            min: s.min().unwrap_or(f64::NAN),
            max: s.max().unwrap_or(f64::NAN),
        }
    }
}

/// Fold an iterator of per-trial values into aggregate statistics.
///
/// Callers must pass values in trial order for the bit-exact
/// reproducibility guarantee to hold.
pub fn aggregate(values: impl IntoIterator<Item = f64>) -> AggregateStats {
    let mut s = Summary::new();
    for v in values {
        s.push(v);
    }
    AggregateStats::from_summary(&s)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn aggregate_matches_hand_computation() {
        let a = aggregate([1.0, 2.0, 3.0, 4.0]);
        assert_eq!(a.n, 4);
        assert!((a.mean - 2.5).abs() < 1e-12);
        // Sample stddev of 1..4 is sqrt(5/3).
        assert!((a.stddev - (5.0f64 / 3.0).sqrt()).abs() < 1e-12);
        assert!((a.ci95 - 1.96 * a.stddev / 2.0).abs() < 1e-12);
        assert_eq!(a.min, 1.0);
        assert_eq!(a.max, 4.0);
    }

    #[test]
    fn aggregate_of_nothing_is_empty() {
        let a = aggregate([]);
        assert_eq!(a.n, 0);
        assert_eq!(a.mean, 0.0);
        assert_eq!(a.ci95, 0.0);
        assert!(a.min.is_nan() && a.max.is_nan());
    }

    #[test]
    fn single_sample_has_zero_spread() {
        let a = aggregate([7.5]);
        assert_eq!(a.n, 1);
        assert_eq!(a.mean, 7.5);
        assert_eq!(a.stddev, 0.0);
        assert_eq!(a.ci95, 0.0);
    }

    #[test]
    fn order_identical_folds_are_bit_identical() {
        let xs: Vec<f64> = (0..32).map(|i| (i as f64).sqrt() * 0.3 + 1.0).collect();
        let a = aggregate(xs.iter().copied());
        let b = aggregate(xs.iter().copied());
        assert_eq!(a.mean.to_bits(), b.mean.to_bits());
        assert_eq!(a.stddev.to_bits(), b.stddev.to_bits());
        assert_eq!(a.ci95.to_bits(), b.ci95.to_bits());
    }
}
