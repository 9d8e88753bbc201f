//! Property tests for the radio models: all outputs bounded, all
//! monotonicities hold everywhere, not just at the unit-test points,
//! and the medium agrees with its brute-force reference after any
//! mutation sequence.

mod reference;

use lv_radio::lqi::{mean_lqi_from_snr, LQI_MAX, LQI_MIN};
use lv_radio::per::{ber_oqpsk, packet_error_rate};
use lv_radio::rssi::{rssi_register, rssi_to_power_dbm, RSSI_REGISTER_MAX, RSSI_REGISTER_MIN};
use lv_radio::units::{Dbm, Position};
use lv_radio::{lqi_from_snr, PowerLevel, PropagationConfig};
use lv_sim::SimRng;
use proptest::prelude::*;
use reference::{apply, lockstep, mutation_strategy, pair, touched, warm};

proptest! {
    /// BER is a probability and non-increasing in SNR.
    #[test]
    fn ber_bounded_and_monotone(snr in -40.0f64..40.0, delta in 0.0f64..5.0) {
        let b1 = ber_oqpsk(snr);
        let b2 = ber_oqpsk(snr + delta);
        prop_assert!((0.0..=0.5).contains(&b1));
        prop_assert!(b2 <= b1 + 1e-12);
    }

    /// PER is a probability, monotone in frame length.
    #[test]
    fn per_bounded(snr in -40.0f64..40.0, len in 1usize..=127, extra in 0usize..64) {
        let p1 = packet_error_rate(snr, len);
        let p2 = packet_error_rate(snr, len + extra);
        prop_assert!((0.0..=1.0).contains(&p1));
        prop_assert!(p2 >= p1 - 1e-12, "PER must grow with length");
    }

    /// The RSSI register is clamped, monotone, and inverts within range.
    #[test]
    fn rssi_register_properties(p in -150.0f64..50.0, delta in 0.0f64..30.0) {
        let r1 = rssi_register(Dbm(p));
        let r2 = rssi_register(Dbm(p + delta));
        prop_assert!((RSSI_REGISTER_MIN..=RSSI_REGISTER_MAX).contains(&r1));
        prop_assert!(r2 >= r1);
        // Within the linear region the mapping round-trips to ±0.5 dB.
        if r1 > RSSI_REGISTER_MIN && r1 < RSSI_REGISTER_MAX {
            prop_assert!((rssi_to_power_dbm(r1).0 - p).abs() <= 0.5);
        }
    }

    /// LQI stays in the CC2420's 50–110 band for any SNR and any rng.
    #[test]
    fn lqi_bounded(snr in -50.0f64..60.0, seed in any::<u64>()) {
        let mean = mean_lqi_from_snr(snr);
        prop_assert!((LQI_MIN as f64..=LQI_MAX as f64).contains(&mean));
        let mut rng = SimRng::stream(seed, 7);
        let sample = lqi_from_snr(snr, &mut rng);
        prop_assert!((LQI_MIN..=LQI_MAX).contains(&sample));
    }

    /// Power interpolation is monotone over the full register range and
    /// stays within the documented −25..0 dBm span.
    #[test]
    fn power_levels_monotone(a in 0u8..=31, b in 0u8..=31) {
        let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
        let (Some(pl), Some(ph)) = (PowerLevel::new(lo), PowerLevel::new(hi)) else {
            return Err(TestCaseError::fail("constructor"));
        };
        prop_assert!(pl.dbm().0 <= ph.dbm().0 + 1e-12);
        prop_assert!((-25.0..=0.0).contains(&pl.dbm().0));
    }

    /// Distance is a metric (symmetry + triangle inequality on triples).
    #[test]
    fn distance_metric(
        ax in -100.0f64..100.0, ay in -100.0f64..100.0,
        bx in -100.0f64..100.0, by in -100.0f64..100.0,
        cx in -100.0f64..100.0, cy in -100.0f64..100.0,
    ) {
        let a = Position::new(ax, ay);
        let b = Position::new(bx, by);
        let c = Position::new(cx, cy);
        prop_assert!((a.distance(b).0 - b.distance(a).0).abs() < 1e-9);
        prop_assert!(a.distance(c).0 <= a.distance(b).0 + b.distance(c).0 + 1e-9);
        prop_assert!(a.distance(a).0 == 0.0);
    }

    /// dBm ↔ mW conversion round-trips.
    #[test]
    fn dbm_mw_round_trip(p in -120.0f64..30.0) {
        let back = Dbm::from_mw(Dbm(p).to_mw());
        prop_assert!((back.0 - p).abs() < 1e-9);
    }

    /// After ANY sequence of position / death / override mutations,
    /// under any shadowing σ (negative included), the medium answers
    /// every query bit-identically to the brute-force reference — same
    /// reachable sets (and hence the same RxEnd schedule), same mean
    /// powers, same assessments, CCA and memoized mW, and the same
    /// number of RNG draws consumed. The memo and the CCA fast path are
    /// read between mutations, so a missed memo flush shows up as a
    /// stale `mean_rx_mw`.
    #[test]
    fn medium_matches_reference_after_any_mutations(
        seed in any::<u64>(),
        shadow_sigma_db in -6.0f64..6.0,
        muts in proptest::collection::vec(mutation_strategy(16), 0..24),
    ) {
        let mut rng = SimRng::from_seed_u64(seed);
        let positions: Vec<Position> = (0..16)
            .map(|_| Position::new(rng.unit() * 150.0, rng.unit() * 150.0))
            .collect();
        let config = PropagationConfig {
            shadow_sigma_db,
            ..PropagationConfig::default()
        };
        let (mut medium, mut reference) = pair(positions, config, seed);
        let mut warm_rng = SimRng::stream(seed, 0x3A3A);
        for m in &muts {
            warm(&mut medium, touched(m), 16, &mut warm_rng);
            apply(m, &mut medium, &mut reference);
        }
        lockstep(&mut medium, &reference, seed)
            .map_err(|e| TestCaseError::fail(format!("{e} after {muts:?}")))?;
    }
}
