//! `Medium` against the brute-force `ReferenceMedium` on fixed worlds:
//! a scattered layout before and after mutations, the eight-hop
//! corridor with its wall overrides, a line under negative shadowing
//! σ, and CCA on a close pair. Every query must match bit for bit and
//! leave its RNG stream where the reference leaves it.

mod reference;

use lv_radio::units::Position;
use lv_radio::{Channel, PowerLevel, PropagationConfig};
use lv_sim::SimRng;
use reference::{apply, lockstep, pair, scatter, Mutation};

/// `n` nodes on a line, `spacing` meters apart.
fn line(n: u16, spacing: f64) -> Vec<Position> {
    (0..n)
        .map(|i| Position::new(f64::from(i) * spacing, 0.0))
        .collect()
}

#[test]
fn medium_matches_reference_on_static_scatter() {
    for seed in [11, 13] {
        let (mut medium, reference) = pair(scatter(40, 120.0, seed), Default::default(), seed);
        lockstep(&mut medium, &reference, seed).unwrap();
    }
}

#[test]
fn medium_matches_reference_after_mutations() {
    let block = |from, to| Mutation::Override {
        from,
        to,
        blocked: true,
        extra_loss_db: 0.0,
    };
    let loss = |from, to, extra_loss_db| Mutation::Override {
        from,
        to,
        blocked: false,
        extra_loss_db,
    };
    let mutations = [
        Mutation::Move {
            id: 5,
            x: 300.0, // off the original bounding box
            y: 300.0,
        },
        Mutation::Move {
            id: 7,
            x: 0.5,
            y: 0.5,
        },
        Mutation::Dead { id: 3, dead: true },
        block(1, 2),
        // Negative loss: extends range past the prefilter.
        loss(8, 9, -40.0),
        loss(4, 6, 60.0),
        Mutation::ClearOverride { from: 4, to: 6 },
    ];
    let undo = [
        Mutation::ClearOverride { from: 1, to: 2 },
        Mutation::ClearOverride { from: 8, to: 9 },
        Mutation::Dead { id: 3, dead: false },
    ];
    for seed in [23, 29] {
        let (mut medium, mut reference) = pair(scatter(40, 120.0, seed), Default::default(), seed);
        // Each pass reads every link through the memo first, so a
        // mutation that leaves a stale entry behind is caught by the next.
        lockstep(&mut medium, &reference, seed).unwrap();
        for m in &mutations {
            apply(m, &mut medium, &mut reference);
        }
        lockstep(&mut medium, &reference, seed).unwrap();
        for m in &undo {
            apply(m, &mut medium, &mut reference);
        }
        lockstep(&mut medium, &reference, seed).unwrap();
    }
}

/// The medium `Topology::eight_hop_corridor()` builds — the world behind
/// Figs. 5–7, `corridor-commands` and `serve-loopback` — built the same
/// way: nine nodes 5 m apart, then a 40 dB wall override on every link
/// between non-adjacent nodes. CCA has to decide overrides link by
/// link: a blocked link draws nothing, any other non-candidate draws one
/// Gaussian it cannot use.
#[test]
fn eight_hop_corridor_matches_reference() {
    for seed in [42, 7] {
        let (mut medium, mut reference) = pair(line(9, 5.0), PropagationConfig::default(), seed);
        for from in 0..9u16 {
            for to in 0..9u16 {
                if from.abs_diff(to) >= 2 {
                    let wall = Mutation::Override {
                        from,
                        to,
                        blocked: false,
                        extra_loss_db: 40.0,
                    };
                    apply(&wall, &mut medium, &mut reference);
                }
            }
        }
        lockstep(&mut medium, &reference, seed).unwrap();

        // Block a walled link and an adjacent one, kill a relay and
        // raise the channel's noise floor.
        for m in [
            Mutation::Override {
                from: 0,
                to: 5,
                blocked: true,
                extra_loss_db: 40.0,
            },
            Mutation::Override {
                from: 3,
                to: 4,
                blocked: true,
                extra_loss_db: 0.0,
            },
            Mutation::Dead { id: 6, dead: true },
        ] {
            apply(&m, &mut medium, &mut reference);
        }
        medium.set_channel_noise(Channel::DEFAULT, 6.0);
        lockstep(&mut medium, &reference, seed).unwrap();
    }
}

/// A negative σ draws the same shadowing distribution as `|σ|`, so the
/// qualification range must not shrink with it.
#[test]
fn negative_shadowing_sigma_keeps_every_candidate() {
    let config = PropagationConfig {
        shadow_sigma_db: -3.8,
        ..PropagationConfig::default()
    };
    let (mut medium, reference) = pair(line(6, 5.0), config, 42);
    let want = reference.reachable(0, PowerLevel::MAX);
    assert!(want.len() > 1, "the reference hears neighbours: {want:?}");
    let got: Vec<u16> = medium.reachable(0, PowerLevel::MAX).collect();
    assert_eq!(got, want);
    lockstep(&mut medium, &reference, 42).unwrap();
}

#[test]
fn cca_senses_nearby_transmitter() {
    let (medium, reference) = pair(line(2, 3.0), PropagationConfig::default(), 42);
    let mut rng = SimRng::stream(6, 6);
    let mut senses = 0;
    for _ in 0..100 {
        let mut expect = rng.clone();
        let sensed = medium.cca_senses_fast(0, 1, PowerLevel::MAX, &mut rng);
        assert_eq!(
            sensed,
            reference.cca_senses(0, 1, PowerLevel::MAX, &mut expect)
        );
        assert_eq!(rng.clone().next_u64(), expect.next_u64());
        senses += usize::from(sensed);
    }
    assert!(senses >= 99, "senses = {senses}");
    // Never senses itself.
    assert!(!medium.cca_senses_fast(1, 1, PowerLevel::MAX, &mut rng));
}
