//! The test oracle for `lv_radio::Medium`: a brute-force reference
//! built only from the crate's public link-model functions, plus the
//! mutation helpers and the lockstep check the oracle tests share.
//!
//! `ReferenceMedium` answers every query with an O(N) scan and no
//! cache, in the float-op order the medium's answers are defined by:
//! mean rx power is `(tx dBm − path loss) − extra loss`, with the path
//! loss recomputed from the link's frozen shadowing draw every time.
//! `lockstep` then requires the medium to match it bit for bit, query
//! by query, including how far each query advances its RNG stream.

// Each test crate that includes this module uses a subset of it.
#![allow(dead_code)]

use lv_radio::units::{Dbm, Position};
use lv_radio::{
    lqi_from_snr, packet_error_rate, rssi_register, Channel, LinkOverride, LogDistance, Medium,
    PowerLevel, PropagationConfig, RxAssessment,
};
use lv_sim::SimRng;
use proptest::prelude::*;
use std::collections::BTreeMap;

/// The brute-force medium.
#[derive(Debug, Clone)]
pub struct ReferenceMedium {
    positions: Vec<Position>,
    propagation: LogDistance,
    overrides: BTreeMap<(u16, u16), LinkOverride>,
    dead: Vec<bool>,
    noise_floor: Dbm,
    sensitivity: Dbm,
    cca_threshold: Dbm,
}

impl ReferenceMedium {
    /// The reference for a medium built as `Medium::new(positions,
    /// config, seed)`; the radio constants are read from `medium`.
    pub fn new(
        medium: &Medium,
        positions: Vec<Position>,
        config: PropagationConfig,
        seed: u64,
    ) -> Self {
        let n = positions.len();
        ReferenceMedium {
            positions,
            propagation: LogDistance::new(config, seed),
            overrides: BTreeMap::new(),
            dead: vec![false; n],
            noise_floor: medium.noise_floor(),
            sensitivity: medium.sensitivity(),
            cca_threshold: medium.cca_threshold(),
        }
    }

    /// Move node `id`.
    pub fn set_position(&mut self, id: u16, pos: Position) {
        self.positions[id as usize] = pos;
    }

    /// Kill or revive node `id`'s radio.
    pub fn set_dead(&mut self, id: u16, dead: bool) {
        self.dead[id as usize] = dead;
    }

    /// Apply a directed-link override.
    pub fn set_override(&mut self, from: u16, to: u16, ov: LinkOverride) {
        self.overrides.insert((from, to), ov);
    }

    /// Remove a directed-link override.
    pub fn clear_override(&mut self, from: u16, to: u16) {
        self.overrides.remove(&(from, to));
    }

    fn path_loss_db(&self, from: u16, to: u16) -> f64 {
        let d = self.positions[from as usize].distance(self.positions[to as usize]);
        self.propagation.mean_path_loss_db(from, to, d)
    }

    /// Expected received power, `None` for a dead radio or a blocked
    /// link.
    pub fn mean_rx_power(&self, from: u16, to: u16, power: PowerLevel) -> Option<Dbm> {
        if self.dead[from as usize] || self.dead[to as usize] {
            return None;
        }
        let ov = self.overrides.get(&(from, to)).copied().unwrap_or_default();
        if ov.blocked {
            return None;
        }
        let p = power.dbm() - self.path_loss_db(from, to);
        Some(p - ov.extra_loss_db)
    }

    /// Mean rx power above the 6 dB-below-sensitivity floor.
    pub fn hears(&self, from: u16, to: u16, power: PowerLevel) -> bool {
        self.mean_rx_power(from, to, power)
            .is_some_and(|p| p.0 >= self.sensitivity.0 - 6.0)
    }

    /// Every node that hears `from`, ascending (a dead sender reaches
    /// nobody).
    pub fn reachable(&self, from: u16, power: PowerLevel) -> Vec<u16> {
        if self.dead[from as usize] {
            return Vec::new();
        }
        (0..self.positions.len() as u16)
            .filter(|&to| self.hears(from, to, power))
            .collect()
    }

    /// One reception attempt; `channel_noise_db` is the medium's
    /// `channel_noise_db` for the frame's channel.
    #[allow(clippy::too_many_arguments)]
    pub fn assess_on(
        &self,
        from: u16,
        to: u16,
        power: PowerLevel,
        frame_bytes: usize,
        interference_mw: f64,
        channel_noise_db: f64,
        rng: &mut SimRng,
    ) -> Option<RxAssessment> {
        if self.dead[from as usize] || self.dead[to as usize] {
            return None;
        }
        let ov = self.overrides.get(&(from, to)).copied().unwrap_or_default();
        if ov.blocked {
            return None;
        }
        let rx_power =
            self.propagation
                .received_power_from_pl(power.dbm(), self.path_loss_db(from, to), rng)
                - ov.extra_loss_db;
        if rx_power.0 < self.sensitivity.0 {
            return None;
        }
        let noise_db = self.noise_floor.0 + channel_noise_db;
        let noise_mw = Dbm(noise_db).to_mw() + interference_mw;
        let snr_db = rx_power.0 - Dbm::from_mw(noise_mw).0;
        let per = packet_error_rate(snr_db, frame_bytes);
        let delivered = !rng.chance(per);
        Some(RxAssessment {
            rx_power,
            snr_db,
            delivered,
            rssi: rssi_register(rx_power),
            lqi: lqi_from_snr(snr_db, rng),
        })
    }

    /// CCA: mean rx power plus one unit-σ jitter draw against the
    /// threshold. Never senses itself; dead radios and blocked links
    /// sense nothing and draw nothing.
    pub fn cca_senses(
        &self,
        from: u16,
        listener: u16,
        power: PowerLevel,
        rng: &mut SimRng,
    ) -> bool {
        if from == listener {
            return false;
        }
        let Some(mean) = self.mean_rx_power(from, listener, power) else {
            return false;
        };
        let jitter = rng.normal(0.0, 1.0);
        mean.0 + jitter >= self.cca_threshold.0
    }

    /// Mean rx power in mW.
    pub fn mean_rx_mw(&self, from: u16, to: u16, power: PowerLevel) -> Option<f64> {
        self.mean_rx_power(from, to, power).map(|p| p.to_mw())
    }
}

/// A medium and its reference, built from the same inputs.
pub fn pair(
    positions: Vec<Position>,
    config: PropagationConfig,
    seed: u64,
) -> (Medium, ReferenceMedium) {
    let medium = Medium::new(positions.clone(), config, seed);
    let reference = ReferenceMedium::new(&medium, positions, config, seed);
    (medium, reference)
}

/// `n` nodes scattered uniformly over a `side × side` square.
pub fn scatter(n: usize, side: f64, seed: u64) -> Vec<Position> {
    let mut rng = SimRng::from_seed_u64(seed);
    (0..n)
        .map(|_| Position::new(rng.unit() * side, rng.unit() * side))
        .collect()
}

/// Power levels every lockstep comparison covers.
fn powers() -> [PowerLevel; 3] {
    [
        PowerLevel::MIN,
        PowerLevel::new(17).expect("valid level"),
        PowerLevel::MAX,
    ]
}

fn check(ok: bool, what: impl FnOnce() -> String) -> Result<(), String> {
    if ok {
        Ok(())
    } else {
        Err(what())
    }
}

/// Every query of `medium` against `reference`, for every ordered node
/// pair at three power levels: reachable sets, `hears`, mean rx power,
/// `assess_on`, `cca_senses_fast` and `mean_rx_mw` (twice: the memo
/// miss that installs and the hit that reads). Values must match bit
/// for bit, and each draw-taking query must leave its RNG stream where
/// the reference leaves it.
pub fn lockstep(medium: &mut Medium, reference: &ReferenceMedium, seed: u64) -> Result<(), String> {
    let n = medium.node_count() as u16;
    let channel = Channel::DEFAULT;
    let noise = medium.channel_noise_db(channel);
    for power in powers() {
        for from in 0..n {
            let got: Vec<u16> = medium.reachable(from, power).collect();
            let want = reference.reachable(from, power);
            check(got == want, || {
                format!("reachable({from}) at {power:?}: {got:?} != {want:?}")
            })?;
            for to in 0..n {
                let at = || format!("({from}→{to}) at {power:?}");
                check(
                    medium.hears(from, to, power) == reference.hears(from, to, power),
                    || format!("hears{}", at()),
                )?;
                let got = medium.mean_rx_power(from, to, power).map(|p| p.0.to_bits());
                let want = reference
                    .mean_rx_power(from, to, power)
                    .map(|p| p.0.to_bits());
                check(got == want, || format!("mean_rx_power{}", at()))?;

                let label = u64::from(from) << 24 | u64::from(to) << 8 | u64::from(power.level());
                let mut r1 = SimRng::stream(seed, label);
                let mut r2 = r1.clone();
                let a1 = medium.assess_on(from, to, power, 48, 1e-9, channel, &mut r1);
                let a2 = reference.assess_on(from, to, power, 48, 1e-9, noise, &mut r2);
                check(format!("{a1:?}") == format!("{a2:?}"), || {
                    format!("assess_on{}: {a1:?} != {a2:?}", at())
                })?;
                check(r1.next_u64() == r2.next_u64(), || {
                    format!("rng desync after assess_on{}", at())
                })?;

                let mut c1 = SimRng::stream(seed ^ 0xCCA, label);
                let mut c2 = c1.clone();
                let got = medium.cca_senses_fast(from, to, power, &mut c1);
                let want = reference.cca_senses(from, to, power, &mut c2);
                check(got == want, || format!("cca_senses_fast{}", at()))?;
                check(c1.next_u64() == c2.next_u64(), || {
                    format!("rng desync after cca_senses_fast{}", at())
                })?;

                let want = reference.mean_rx_mw(from, to, power).map(f64::to_bits);
                for read in ["miss", "hit"] {
                    let got = medium.mean_rx_mw(from, to, power).map(f64::to_bits);
                    check(got == want, || format!("mean_rx_mw{} ({read})", at()))?;
                }
            }
        }
    }
    Ok(())
}

/// One mutation of the link state, applied to a medium and its
/// reference alike.
#[derive(Debug, Clone)]
pub enum Mutation {
    /// Move a node.
    Move { id: u16, x: f64, y: f64 },
    /// Kill or revive a radio.
    Dead { id: u16, dead: bool },
    /// Set a directed-link override.
    Override {
        from: u16,
        to: u16,
        blocked: bool,
        extra_loss_db: f64,
    },
    /// Clear a directed-link override.
    ClearOverride { from: u16, to: u16 },
}

/// Random mutations over `n` nodes: moves anywhere around a 150 m
/// square, blocks, and extra losses from −45 dB (range-extending) to
/// +60 dB.
pub fn mutation_strategy(n: u16) -> impl Strategy<Value = Mutation> {
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

/// Apply `m` to both media.
pub fn apply(m: &Mutation, medium: &mut Medium, reference: &mut ReferenceMedium) {
    match *m {
        Mutation::Move { id, x, y } => {
            medium.set_position(id, Position::new(x, y));
            reference.set_position(id, Position::new(x, y));
        }
        Mutation::Dead { id, dead } => {
            medium.set_dead(id, dead);
            reference.set_dead(id, dead);
        }
        Mutation::Override {
            from,
            to,
            blocked,
            extra_loss_db,
        } => {
            let ov = LinkOverride {
                blocked,
                extra_loss_db,
            };
            medium.set_override(from, to, ov);
            reference.set_override(from, to, ov);
        }
        Mutation::ClearOverride { from, to } => {
            medium.clear_override(from, to);
            reference.clear_override(from, to);
        }
    }
}

/// The nodes a mutation touches.
pub fn touched(m: &Mutation) -> [u16; 2] {
    match *m {
        Mutation::Move { id, .. } | Mutation::Dead { id, .. } => [id, id],
        Mutation::Override { from, to, .. } | Mutation::ClearOverride { from, to } => [from, to],
    }
}

/// Read every link touching `ids` through the mean-mW memo and the CCA
/// fast path, so that a mutation which fails to flush the memo leaves
/// stale entries behind for a later comparison to find.
pub fn warm(medium: &mut Medium, ids: [u16; 2], n: u16, rng: &mut SimRng) {
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
