//! Property tests for the radio models: all outputs bounded, all
//! monotonicities hold everywhere, not just at the unit-test points.

use lv_radio::lqi::{mean_lqi_from_snr, LQI_MAX, LQI_MIN};
use lv_radio::per::{ber_oqpsk, packet_error_rate};
use lv_radio::rssi::{rssi_register, rssi_to_power_dbm, RSSI_REGISTER_MAX, RSSI_REGISTER_MIN};
use lv_radio::units::{Dbm, Position};
use lv_radio::{lqi_from_snr, Channel, LinkOverride, Medium, PowerLevel, PropagationConfig};
use lv_sim::SimRng;
use proptest::prelude::*;

/// One randomized mutation of the medium's link state.
#[derive(Debug, Clone)]
enum Mutation {
    Move {
        id: u16,
        x: f64,
        y: f64,
    },
    Dead {
        id: u16,
        dead: bool,
    },
    Override {
        from: u16,
        to: u16,
        blocked: bool,
        extra_loss_db: f64,
    },
    ClearOverride {
        from: u16,
        to: u16,
    },
}

fn mutation_strategy(n: u16) -> impl Strategy<Value = Mutation> {
    prop_oneof![
        (0..n, -50.0f64..200.0, -50.0f64..200.0).prop_map(|(id, x, y)| Mutation::Move { id, x, y }),
        (0..n, any::<bool>()).prop_map(|(id, dead)| Mutation::Dead { id, dead }),
        (0..n, 0..n, any::<bool>(), -45.0f64..60.0).prop_map(
            |(from, to, blocked, extra_loss_db)| Mutation::Override {
                from,
                to,
                blocked,
                extra_loss_db
            }
        ),
        (0..n, 0..n).prop_map(|(from, to)| Mutation::ClearOverride { from, to }),
    ]
}

fn apply(m: &Mutation, medium: &mut Medium) {
    match *m {
        Mutation::Move { id, x, y } => medium.set_position(id, Position::new(x, y)),
        Mutation::Dead { id, dead } => medium.set_dead(id, dead),
        Mutation::Override {
            from,
            to,
            blocked,
            extra_loss_db,
        } => medium.set_override(
            from,
            to,
            LinkOverride {
                blocked,
                extra_loss_db,
            },
        ),
        Mutation::ClearOverride { from, to } => medium.clear_override(from, to),
    }
}

/// The nodes a mutation touches.
fn touched(m: &Mutation) -> [u16; 2] {
    match *m {
        Mutation::Move { id, .. } | Mutation::Dead { id, .. } => [id, id],
        Mutation::Override { from, to, .. } | Mutation::ClearOverride { from, to } => [from, to],
    }
}

/// Read every link touching `ids` through the mean-mW memo and the CCA
/// fast path, so that a mutation which fails to flush the memo leaves
/// stale entries behind for the final comparison to find.
fn warm(medium: &mut Medium, ids: [u16; 2], n: u16, rng: &mut SimRng) {
    for id in ids {
        for other in 0..n {
            for (a, b) in [(id, other), (other, id)] {
                for power in [PowerLevel::MIN, PowerLevel::MAX] {
                    medium.mean_rx_mw(a, b, power);
                    medium.cca_senses_fast(a, b, power, rng);
                }
            }
        }
    }
}

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

    /// Tentpole property: after ANY sequence of position / death /
    /// override mutations, the cached medium answers every query
    /// bit-identically to brute force — same reachable sets (and hence
    /// the same RxEnd schedule), same mean powers, same assessments,
    /// and the same number of RNG draws consumed. The memo and the CCA
    /// fast path are read between mutations, so a missed memo flush
    /// shows up as a stale `mean_rx_mw`.
    #[test]
    fn cached_medium_matches_brute_force(
        seed in any::<u64>(),
        muts in proptest::collection::vec(mutation_strategy(16), 0..24),
    ) {
        let mut rng = SimRng::from_seed_u64(seed);
        let positions: Vec<Position> = (0..16)
            .map(|_| Position::new(rng.unit() * 150.0, rng.unit() * 150.0))
            .collect();
        let mut cached = Medium::new(positions.clone(), PropagationConfig::default(), seed);
        let mut brute = Medium::new_uncached(positions, PropagationConfig::default(), seed);
        prop_assert!(cached.cache_enabled() && !brute.cache_enabled());
        let mut warm_rng = SimRng::stream(seed, 0x3A3A);
        for m in &muts {
            warm(&mut cached, touched(m), 16, &mut warm_rng);
            apply(m, &mut cached);
            apply(m, &mut brute);
        }
        for power in [PowerLevel::MIN, PowerLevel::MAX] {
            for from in 0..16u16 {
                let a: Vec<u16> = cached.reachable(from, power).collect();
                let b: Vec<u16> = brute.reachable(from, power).collect();
                prop_assert_eq!(a, b, "reachable({}) after {:?}", from, muts);
                for to in 0..16u16 {
                    prop_assert_eq!(
                        cached.mean_rx_power(from, to, power),
                        brute.mean_rx_power(from, to, power),
                        "mean_rx_power({},{})", from, to
                    );
                    let mut r1 = SimRng::stream(seed, u64::from(from) << 16 | u64::from(to));
                    let mut r2 = r1.clone();
                    let ch = Channel::DEFAULT;
                    let a1 = cached.assess_on(from, to, power, 48, 1e-9, ch, &mut r1);
                    let a2 = brute.assess_on(from, to, power, 48, 1e-9, ch, &mut r2);
                    prop_assert_eq!(format!("{:?}", a1), format!("{:?}", a2));
                    prop_assert_eq!(r1.next_u64(), r2.next_u64(), "rng desync");
                    let mut c1 = SimRng::stream(seed, 0xCCA);
                    let mut c2 = c1.clone();
                    prop_assert_eq!(
                        cached.cca_senses(from, to, power, &mut c1),
                        brute.cca_senses(from, to, power, &mut c2)
                    );
                    prop_assert_eq!(c1.next_u64(), c2.next_u64(), "cca rng desync");
                    prop_assert_eq!(
                        cached.mean_rx_mw(from, to, power).map(f64::to_bits),
                        brute.mean_rx_power(from, to, power).map(|p| p.to_mw().to_bits()),
                        "mean_rx_mw({},{})", from, to
                    );
                    let mut f1 = SimRng::stream(seed, 0xFA57);
                    let mut f2 = f1.clone();
                    prop_assert_eq!(
                        cached.cca_senses_fast(from, to, power, &mut f1),
                        brute.cca_senses(from, to, power, &mut f2),
                        "cca_senses_fast({},{})", from, to
                    );
                    prop_assert_eq!(f1.next_u64(), f2.next_u64(), "fast cca rng desync");
                }
            }
        }
    }
}
