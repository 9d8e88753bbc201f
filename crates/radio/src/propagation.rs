//! Log-distance path loss with per-directed-link shadowing.
//!
//! The EnviroMic deployment experience that motivates LiteView found that
//! "the distance between nodes and their antenna directions considerably
//! affected the communication layer performance". We reproduce that
//! environment with the log-normal shadowing model used throughout the
//! low-power-link literature (Zuniga & Krishnamachari, "Analyzing the
//! transitional region in low power wireless links", SECON 2004):
//!
//! ```text
//! PL(d) = PL(d0) + 10·n·log10(d/d0) + X_link        [dB]
//! ```
//!
//! where `X_link` is a zero-mean Gaussian offset *frozen per directed
//! link*. Freezing (rather than redrawing per packet) models antenna
//! orientation, enclosures, and multipath at fixed node positions — and
//! because the draw differs for (a→b) and (b→a), the model naturally
//! produces the **asymmetric links** the toolkit's blacklist and
//! per-direction RSSI reporting are designed to expose. Fast fading on
//! top of the frozen mean is modeled as a small per-packet Gaussian.

use crate::units::{Dbm, Meters};
use lv_sim::rng::derive_seed;
use lv_sim::SimRng;
use serde::{Deserialize, Serialize};

/// Parameters of the log-distance model.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct PropagationConfig {
    /// Path-loss exponent `n`. ~2 free space, 2.5–4 indoors.
    pub exponent: f64,
    /// Path loss at the reference distance, dB.
    pub pl_d0_db: f64,
    /// Reference distance, meters.
    pub d0: Meters,
    /// Standard deviation of the frozen per-link shadowing, dB.
    pub shadow_sigma_db: f64,
    /// Standard deviation of per-packet fast fading, dB.
    pub fading_sigma_db: f64,
}

impl Default for PropagationConfig {
    /// Indoor office-like defaults from the SECON'04 measurement campaign
    /// on CC1000/CC2420-class radios.
    fn default() -> Self {
        PropagationConfig {
            exponent: 3.0,
            pl_d0_db: 55.0,
            d0: Meters(1.0),
            shadow_sigma_db: 3.8,
            fading_sigma_db: 1.0,
        }
    }
}

/// The deterministic propagation model.
///
/// All randomness is derived from `seed`, so a topology's link qualities
/// are a pure function of `(seed, positions, config)`.
#[derive(Debug, Clone)]
pub struct LogDistance {
    config: PropagationConfig,
    seed: u64,
}

impl LogDistance {
    /// Build the model for an experiment seed.
    pub fn new(config: PropagationConfig, seed: u64) -> Self {
        LogDistance { config, seed }
    }

    /// Model parameters.
    pub fn config(&self) -> &PropagationConfig {
        &self.config
    }

    /// Deterministic mean path loss for the directed link `a → b` over
    /// distance `d` (distance term plus the frozen shadowing draw).
    pub fn mean_path_loss_db(&self, a: u16, b: u16, d: Meters) -> f64 {
        self.distance_term_db(d) + self.link_shadowing_db(a, b)
    }

    /// The distance part of the path loss, `PL(d0) + 10·n·log10(d/d0)`,
    /// with `d` clamped to at least `0.1·d0`.
    pub(crate) fn distance_term_db(&self, d: Meters) -> f64 {
        let dist = d.0.max(self.config.d0.0 * 0.1);
        self.config.pl_d0_db + 10.0 * self.config.exponent * (dist / self.config.d0.0).log10()
    }

    /// The throwaway RNG stream the link `a → b` draws its frozen
    /// shadowing from.
    fn shadow_stream(&self, a: u16, b: u16) -> SimRng {
        let label = 0x5348_4144_0000_0000 | ((a as u64) << 16) | b as u64;
        SimRng::from_seed_u64(derive_seed(self.seed, label))
    }

    /// The frozen shadowing offset for the directed link `a → b`, in dB.
    pub fn link_shadowing_db(&self, a: u16, b: u16) -> f64 {
        self.shadow_stream(a, b)
            .normal(0.0, self.config.shadow_sigma_db)
    }

    /// The first Box–Muller uniform of this link's shadowing draw — the
    /// exact `u1` that [`SimRng::gaussian_radius`] turns into the radius
    /// inside [`Self::mean_path_loss_db_if_at_most`].
    ///
    /// The radius is monotone decreasing in `u1`, so bulk qualifiers can
    /// compare `u1` against a precomputed per-distance threshold and
    /// reject far links without evaluating any logarithm, square root,
    /// or cosine. The stream is throwaway (freshly derived per link), so
    /// peeking here never perturbs draw counts anywhere else.
    pub fn shadowing_u1(&self, a: u16, b: u16) -> f64 {
        self.shadow_stream(a, b).gaussian_u1()
    }

    /// [`Self::mean_path_loss_db`] with an early-out for bulk
    /// qualification: returns the exact path loss when it is at most
    /// `ceiling_db`, `None` otherwise.
    ///
    /// The Box–Muller radius bounds the shadowing magnitude, so a link
    /// whose distance term already exceeds the ceiling by more than
    /// `σ·radius` is rejected after a single uniform draw — skipping the
    /// cosine for the overwhelming majority of far pairs. The shadowing
    /// stream is throwaway (freshly seeded per link), so the shorter
    /// draw count is unobservable. When the value is produced, it is
    /// bit-identical to `mean_path_loss_db` (same operations, same
    /// order).
    pub fn mean_path_loss_db_if_at_most(
        &self,
        a: u16,
        b: u16,
        d: Meters,
        ceiling_db: f64,
    ) -> Option<f64> {
        let distance_term = self.distance_term_db(d);
        let sigma = self.config.shadow_sigma_db;
        let mut rng = self.shadow_stream(a, b);
        let radius = rng.gaussian_radius();
        // Most negative shadow this draw can still produce. Rounding is
        // monotone, so the full value can never undershoot this bound.
        if distance_term - sigma.abs() * radius > ceiling_db {
            return None;
        }
        let shadow = 0.0 + sigma * (radius * rng.gaussian_angle());
        let pl = distance_term + shadow;
        (pl <= ceiling_db).then_some(pl)
    }

    /// Received power for a transmission at `tx_dbm` over a link whose
    /// mean path loss is `pl`, with one fast-fading draw taken from
    /// `fading_rng` (pass a per-receiver stream).
    pub fn received_power_from_pl(&self, tx_dbm: Dbm, pl: f64, fading_rng: &mut SimRng) -> Dbm {
        let fading = if self.config.fading_sigma_db > 0.0 {
            fading_rng.normal(0.0, self.config.fading_sigma_db)
        } else {
            0.0
        };
        tx_dbm - pl + fading
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model(seed: u64) -> LogDistance {
        LogDistance::new(PropagationConfig::default(), seed)
    }

    #[test]
    fn loss_grows_with_distance() {
        let m = model(1);
        let near = m.mean_path_loss_db(1, 2, Meters(1.0));
        let mid = m.mean_path_loss_db(1, 2, Meters(10.0));
        let far = m.mean_path_loss_db(1, 2, Meters(100.0));
        assert!(near < mid && mid < far);
        // 10x distance at n=3 adds 30 dB.
        assert!((mid - near - 30.0).abs() < 1e-9);
        assert!((far - mid - 30.0).abs() < 1e-9);
    }

    #[test]
    fn shadowing_frozen_per_link() {
        let m = model(7);
        let s1 = m.link_shadowing_db(3, 4);
        let s2 = m.link_shadowing_db(3, 4);
        assert_eq!(s1, s2);
    }

    #[test]
    fn shadowing_is_directional() {
        // The (a→b) and (b→a) draws differ: links are asymmetric, which
        // is exactly what LiteView's per-direction reporting diagnoses.
        let m = model(7);
        let fwd = m.link_shadowing_db(3, 4);
        let rev = m.link_shadowing_db(4, 3);
        assert_ne!(fwd, rev);
    }

    #[test]
    fn shadowing_depends_on_seed() {
        assert_ne!(
            model(1).link_shadowing_db(1, 2),
            model(2).link_shadowing_db(1, 2)
        );
    }

    #[test]
    fn shadowing_statistics() {
        let m = model(99);
        let n = 2000;
        let mut sum = 0.0;
        let mut sumsq = 0.0;
        for a in 0..n as u16 {
            let s = m.link_shadowing_db(a, a + 1);
            sum += s;
            sumsq += s * s;
        }
        let mean = sum / n as f64;
        let sd = (sumsq / n as f64 - mean * mean).sqrt();
        assert!(mean.abs() < 0.4, "mean = {mean}");
        assert!((sd - 3.8).abs() < 0.4, "sd = {sd}");
    }

    #[test]
    fn received_power_reasonable() {
        // 0 dBm at 5 m indoors: mean power ± shadowing must be
        // comfortably above a -95 dBm sensitivity at small distance.
        let p = Dbm(0.0) - model(3).mean_path_loss_db(1, 2, Meters(5.0));
        assert!(p.0 > -90.0 && p.0 < -50.0, "p = {}", p.0);
    }

    #[test]
    fn fading_perturbs_but_tracks_mean() {
        let m = model(3);
        let mut rng = SimRng::stream(3, 0xFAD);
        let pl = m.mean_path_loss_db(1, 2, Meters(5.0));
        let mean = Dbm(0.0) - pl;
        let mut acc = 0.0;
        let n = 5000;
        for _ in 0..n {
            acc += m.received_power_from_pl(Dbm(0.0), pl, &mut rng).0;
        }
        let avg = acc / n as f64;
        assert!((avg - mean.0).abs() < 0.15, "avg {avg} vs mean {}", mean.0);
    }

    /// The link's shadowing stream, derived here from the documented
    /// label layout rather than through the model.
    fn reference_stream(seed: u64, a: u16, b: u16) -> SimRng {
        let label = 0x5348_4144_0000_0000 | ((a as u64) << 16) | b as u64;
        SimRng::from_seed_u64(derive_seed(seed, label))
    }

    #[test]
    fn bounded_path_loss_matches_full_computation() {
        // The early-out qualifier must agree with the reference on both
        // the accept/reject decision and (bitwise) the accepted value,
        // across distances spanning reject-by-radius, reject-by-value,
        // and accept outcomes. The reference is the model's formula
        // written out from scratch.
        let m = model(1234);
        let cfg = PropagationConfig::default();
        let mut pairs = 0;
        let mut accepted = 0;
        for a in 0..60u16 {
            for b in 0..60u16 {
                for (d, ceiling) in [(2.0, 80.0), (30.0, 101.0), (120.0, 101.0), (400.0, 101.0)] {
                    let full = cfg.pl_d0_db
                        + 10.0 * cfg.exponent * (d / cfg.d0.0).log10()
                        + reference_stream(1234, a, b).normal(0.0, cfg.shadow_sigma_db);
                    let exact = m.mean_path_loss_db(a, b, Meters(d));
                    assert_eq!(exact.to_bits(), full.to_bits(), "{a}->{b} d={d}");
                    let fast = m.mean_path_loss_db_if_at_most(a, b, Meters(d), ceiling);
                    match fast {
                        Some(pl) => {
                            assert_eq!(pl.to_bits(), full.to_bits(), "{a}->{b} d={d}");
                            assert!(pl <= ceiling);
                            accepted += 1;
                        }
                        None => assert!(full > ceiling, "{a}->{b} d={d}: {full}"),
                    }
                    pairs += 1;
                }
            }
        }
        assert!(accepted > 0 && accepted < pairs, "both outcomes exercised");
    }

    #[test]
    fn shadowing_u1_matches_radius() {
        // The peeked uniform must reproduce the qualifier's radius
        // exactly: radius = sqrt(−2·ln u1).
        let m = model(77);
        for a in 0..50u16 {
            let u1 = m.shadowing_u1(a, a + 1);
            let radius = reference_stream(77, a, a + 1).gaussian_radius();
            assert_eq!(radius.to_bits(), (-2.0 * u1.ln()).sqrt().to_bits());
        }
    }

    #[test]
    fn tiny_distance_clamped() {
        let m = model(3);
        // Zero distance must not produce -inf.
        let pl = m.mean_path_loss_db(1, 2, Meters(0.0));
        assert!(pl.is_finite());
    }
}
