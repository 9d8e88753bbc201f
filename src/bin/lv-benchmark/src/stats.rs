//! Order statistics and the regression verdict used by `--compare`.
//!
//! Quantiles use the "exclusive" rule (Hyndman–Fan type 6), the default
//! of Python's `statistics.quantiles`, so the quartiles printed here are
//! the ones any external check of the same samples computes.

/// The `q`-quantile (0 ≤ q ≤ 1) of `values`, by the exclusive rule:
/// rank `h = q·(n+1)`, clamped to the sample range, interpolated
/// linearly between neighbours. `NaN` for an empty sample.
pub(crate) fn quantile(values: &[f64], q: f64) -> f64 {
    let mut v: Vec<f64> = values.iter().copied().filter(|x| !x.is_nan()).collect();
    if v.is_empty() {
        return f64::NAN;
    }
    v.sort_by(f64::total_cmp);
    let n = v.len();
    let h = q * (n + 1) as f64;
    if h <= 1.0 {
        return v[0];
    }
    if h >= n as f64 {
        return v[n - 1];
    }
    let lo = h.floor() as usize; // 1-based rank of the lower neighbour
    let frac = h - lo as f64;
    v[lo - 1] + frac * (v[lo] - v[lo - 1])
}

/// Median of `values`.
pub(crate) fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Host interference only ever slows work down, and on a small shared
/// host it comes and goes within seconds. A run therefore cuts its
/// measured phase into windows of identical work and reports the window
/// at the fast end: the 90th percentile of per-window rates, or the 10th
/// of per-window times. Across runs this repeats far more closely than
/// the median window, which moves with whatever the host did meanwhile.
pub(crate) fn fast_rate(per_window: &[f64]) -> f64 {
    quantile(per_window, 0.9)
}

/// The time counterpart of [`fast_rate`].
pub(crate) fn fast_time(per_window: &[f64]) -> f64 {
    quantile(per_window, 0.1)
}

/// `x` with four significant digits, for tables whose values span many
/// orders of magnitude.
pub(crate) fn sig4(x: f64) -> String {
    if x == 0.0 || !x.is_finite() {
        return format!("{x}");
    }
    let decimals = (3 - x.abs().log10().floor() as i32).clamp(0, 12) as usize;
    format!("{x:.decimals$}")
}

/// Median and quartiles of one sample.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct Spread {
    pub(crate) median: f64,
    pub(crate) q1: f64,
    pub(crate) q3: f64,
}

impl Spread {
    pub(crate) fn of(values: &[f64]) -> Spread {
        Spread {
            median: median(values),
            q1: quantile(values, 0.25),
            q3: quantile(values, 0.75),
        }
    }

    /// Interquartile range as a share of the median (0 when the median
    /// is 0 and the quartiles agree).
    pub(crate) fn iqr_share(&self) -> f64 {
        let iqr = self.q3 - self.q1;
        if iqr == 0.0 {
            0.0
        } else {
            iqr / self.median.abs()
        }
    }
}

/// Outcome of comparing a candidate sample `b` against a baseline `a`
/// for one (metric, workload) pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Verdict {
    Better,
    Same,
    Worse,
    Unresolved,
}

impl Verdict {
    pub(crate) fn name(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::Same => "same",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Judge `b` against `a`.
///
/// * `better` when every sample of `b` beats every sample of `a`, or
///   when `b` wins at least nine tenths of all `(a, b)` pairs and its
///   median beats `a`'s by more than `a`'s own quartile spread;
/// * otherwise `unresolved` when the run-to-run spread of either side
///   is wider than `bound`;
/// * otherwise `worse` when `b`'s median is worse than `a`'s by more
///   than `bound` (a share of `a`'s median), and `same` when not.
pub(crate) fn verdict(a: &[f64], b: &[f64], bound: f64, higher_is_better: bool) -> Verdict {
    if a.is_empty() || b.is_empty() {
        return Verdict::Unresolved;
    }
    let beats = |x: f64, y: f64| if higher_is_better { x > y } else { x < y };
    let all_better = b.iter().all(|&y| a.iter().all(|&x| beats(y, x)));
    if all_better {
        return Verdict::Better;
    }
    let (sa, sb) = (Spread::of(a), Spread::of(b));
    let gain = if higher_is_better {
        (sb.median - sa.median) / sa.median.abs()
    } else {
        (sa.median - sb.median) / sa.median.abs()
    };
    let pairs = (a.len() * b.len()) as f64;
    let won = b
        .iter()
        .map(|&y| a.iter().filter(|&&x| beats(y, x)).count())
        .sum::<usize>() as f64;
    if won >= 0.9 * pairs && gain > sa.iqr_share() {
        return Verdict::Better;
    }
    if sa.iqr_share() > bound || sb.iqr_share() > bound {
        return Verdict::Unresolved;
    }
    if -gain > bound {
        Verdict::Worse
    } else {
        Verdict::Same
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_match_the_exclusive_rule() {
        // Reference values from Python: statistics.quantiles(range(1, 11), n=4)
        // == [2.75, 5.5, 8.25].
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quantile(&v, 0.25), 2.75);
        assert_eq!(median(&v), 5.5);
        assert_eq!(quantile(&v, 0.75), 8.25);
        // Odd count, unsorted input: quantiles([5, 1, 3, 2, 4]) == [1.5, 3.0, 4.5].
        let w = [5.0, 1.0, 3.0, 2.0, 4.0];
        assert_eq!(quantile(&w, 0.25), 1.5);
        assert_eq!(median(&w), 3.0);
        assert_eq!(quantile(&w, 0.75), 4.5);
    }

    #[test]
    fn extreme_quantiles_clamp_to_the_sample() {
        let v = [3.0, 1.0, 2.0];
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 0.99), 3.0);
        assert_eq!(quantile(&[7.0], 0.5), 7.0);
        assert!(quantile(&[], 0.5).is_nan());
    }

    #[test]
    fn p99_interpolates_inside_a_large_sample() {
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        // h = 0.99 · 1001 = 990.99 → 990 + 0.99 · (991 − 990).
        assert!((quantile(&v, 0.99) - 990.99).abs() < 1e-9);
    }

    #[test]
    fn sig4_keeps_four_significant_digits() {
        assert_eq!(sig4(0.000_544_428), "0.0005444");
        assert_eq!(sig4(14.2623), "14.26");
        assert_eq!(sig4(16_509.89), "16510");
        assert_eq!(sig4(0.0), "0");
    }

    #[test]
    fn iqr_share_is_relative_to_the_median() {
        let s = Spread::of(&[90.0, 95.0, 100.0, 105.0, 110.0]);
        assert_eq!(s.median, 100.0);
        assert_eq!((s.q1, s.q3), (92.5, 107.5));
        assert!((s.iqr_share() - 0.15).abs() < 1e-12);
        assert_eq!(Spread::of(&[0.0, 0.0]).iqr_share(), 0.0);
    }

    #[test]
    fn disjoint_improvement_is_better_even_when_noisy() {
        let a = [100.0, 130.0, 160.0];
        let b = [170.0, 200.0, 230.0];
        assert_eq!(verdict(&a, &b, 0.05, true), Verdict::Better);
        // The same numbers read as latencies: every b is slower.
        assert_eq!(verdict(&a, &b, 0.05, false), Verdict::Unresolved);
    }

    #[test]
    fn small_shift_inside_the_bound_is_same() {
        let a = [100.0, 101.0, 99.0, 100.5, 99.5];
        let b = [98.0, 99.0, 97.5, 98.5, 99.5];
        assert_eq!(verdict(&a, &b, 0.10, true), Verdict::Same);
    }

    #[test]
    fn shift_beyond_the_bound_is_worse() {
        let a = [100.0, 101.0, 99.0, 100.5, 99.5];
        let b = [85.0, 86.0, 84.0, 85.5, 86.5];
        assert_eq!(verdict(&a, &b, 0.10, true), Verdict::Worse);
        // For a lower-is-better metric the same shift is a gain.
        assert_eq!(verdict(&a, &b, 0.10, false), Verdict::Better);
    }

    #[test]
    fn spread_wider_than_the_bound_is_unresolved() {
        let a = [80.0, 100.0, 120.0, 90.0, 110.0];
        let b = [85.0, 95.0, 125.0, 70.0, 105.0];
        assert_eq!(verdict(&a, &b, 0.10, true), Verdict::Unresolved);
    }
}
