//! Host-side probes: a fixed CPU-bound reference loop and the process's
//! memory high-water mark. Both are diagnostics; no metric is normalised
//! by them.

use std::hint::black_box;
use std::time::Instant;

/// Iterations of the reference loop.
const REF_ITERS: u64 = 2_000_000;

/// Nanoseconds per iteration of a fixed, dependency-chained integer loop.
/// It reads how fast this host runs right now: the same binary on the
/// same box has been seen to change speed by a third from one second to
/// the next, so each sample records it next to its results.
pub(crate) fn ref_ns() -> f64 {
    let started = Instant::now();
    let mut x = black_box(0x9E37_79B9_7F4A_7C15u64);
    for i in 0..REF_ITERS {
        x = x
            .wrapping_mul(0x5851_F42D_4C95_7F2D)
            .wrapping_add(black_box(i));
    }
    black_box(x);
    started.elapsed().as_nanos() as f64 / REF_ITERS as f64
}

/// One `kB` field of `/proc/self/status` (e.g. `VmHWM`), in megabytes.
fn status_mb(field: &str) -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status
        .lines()
        .find(|l| l.strip_prefix(field).is_some_and(|r| r.starts_with(':')))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib * 1024.0 / 1e6)
}

/// Peak resident set size of this process so far (`VmHWM`), in MB.
pub(crate) fn peak_rss_mb() -> f64 {
    status_mb("VmHWM").unwrap_or(f64::NAN)
}

/// Current resident set size (`VmRSS`), in MB.
pub(crate) fn rss_mb() -> f64 {
    status_mb("VmRSS").unwrap_or(f64::NAN)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn probes_read_finite_values() {
        assert!(ref_ns() > 0.0);
        let now = rss_mb();
        let peak = peak_rss_mb();
        assert!(now.is_finite() && now > 0.0);
        assert!(peak >= now, "peak {peak} below current rss {now}");
    }
}
