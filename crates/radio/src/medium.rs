//! The shared wireless medium: geometry + propagation + noise.
//!
//! `Medium` answers the question the MAC and the event loop keep asking:
//! *if node A transmits at power P, what does node B experience?* It
//! combines node positions, the [`LogDistance`](crate::propagation)
//! model, per-directed-link overrides (for failure injection), and the
//! noise floor into a single deterministic assessment.
//!
//! Interference is handled by the caller (the network orchestrator keeps
//! the list of concurrently active transmissions) and passed in as an
//! aggregate interference power, so the medium itself stays stateless
//! about time.

use crate::channel::Channel;
use crate::grid::SpatialGrid;
use crate::lqi::lqi_from_snr;
use crate::per::packet_error_rate;
use crate::power::PowerLevel;
use crate::propagation::{LogDistance, PropagationConfig};
use crate::rssi::rssi_register;
use crate::units::{Dbm, Meters, Position};
use lv_sim::SimRng;
use std::collections::BTreeMap;

/// Hard bound on `|SimRng::gaussian()|`. Box–Muller draws
/// `sqrt(-2·ln u1)·cos θ` with `u1 = (1 − unit()).max(f64::MIN_POSITIVE)`
/// and `unit()` built from the top 53 bits, so `u1 ≥ 2⁻⁵³` and
/// `|z| ≤ sqrt(2·53·ln 2) ≈ 8.5717`. This makes the spatial prefilter
/// *exact*: no admissible shadowing draw can push a link past the range
/// bound derived from it.
const GAUSSIAN_HARD_BOUND: f64 = 8.572;

/// One cached directed link in a sender's candidate list.
#[derive(Debug, Clone, Copy)]
struct CandidateLink {
    to: u16,
    /// Frozen mean path loss (distance term + per-link shadowing), dB.
    /// Bit-identical to `LogDistance::mean_path_loss_db` at the current
    /// positions.
    pl_db: f64,
    /// Copy of the link override's extra loss (0 without an override),
    /// kept in sync by `set_override`/`clear_override`.
    extra_loss_db: f64,
}

/// The memoized reachability structure: a spatial grid plus per-sender
/// candidate-receiver lists qualified at `PowerLevel::MAX` (a superset
/// of [`Medium::hears`] for every power level, since the register→dBm
/// map is monotone).
#[derive(Debug, Clone)]
struct LinkCache {
    grid: SpatialGrid,
    /// Conservative qualification range: beyond this true distance no
    /// link can pass `hears` even with the strongest possible shadowing
    /// boost (see [`GAUSSIAN_HARD_BOUND`]). Overridden links are exempt
    /// and always evaluated explicitly.
    max_range: f64,
    /// Candidate receivers per sender, ascending by node id (the event
    /// loop's RxEnd schedule order). Dead state is *not* baked in — it
    /// is checked per query, so `set_dead` needs no invalidation.
    candidates: Vec<Vec<CandidateLink>>,
    /// Memo of `mean_rx_power(·).to_mw()` values keyed by
    /// `(from, to, power)` — the interference aggregation's inner-loop
    /// lookup. Values are installed on first computation, so a hit
    /// returns the exact bits the unmemoized expression produced.
    memo: MeanMwMemo,
    /// Distance-bucketed fast-rejection bounds used when (re)building
    /// candidate lists; see [`RejectTable`].
    reject: RejectTable,
}

/// Number of equal-area distance buckets in the build-time rejection
/// table. Uniform in d² matches the expected pair density, so far
/// buckets (where nearly everything rejects) get most of the
/// resolution.
const REJECT_BUCKETS: usize = 1024;

/// Build-time fast rejection for bulk link qualification.
///
/// Bucket `i` covers squared link distances `[i·w, (i+1)·w)` with
/// `w = r²/N` and stores a conservative threshold on the shadowing
/// draw's first Box–Muller uniform: the radius is `√(−2·ln u1)`, so
/// `u1 > exp(−t²/2)` implies `radius < t`. Taking `t` from the bucket's
/// *left* edge (where the distance term is weakest) with 1e-6 dB of
/// slack guarantees that whenever a link's `u1` exceeds the bound, the
/// radius early-out inside `mean_path_loss_db_if_at_most` would fire —
/// so the build can skip the link without evaluating any logarithm,
/// square root, or cosine. Survivors always re-run the exact original
/// qualifier, keeping candidacy bit-for-bit faithful.
#[derive(Debug, Clone)]
struct RejectTable {
    /// Squared conservative qualification range (the same bound the
    /// grid prefilter uses, so a circle test may only ever err toward
    /// keeping a pair).
    r2: f64,
    /// `N / r²`, or 0.0 when the table is disabled (non-finite range or
    /// non-increasing path loss).
    inv_width: f64,
    /// Per-bucket `u1` thresholds; `2.0` disables the fast reject for a
    /// bucket (every admissible `u1` is ≤ 1).
    bound: Vec<f64>,
}

impl RejectTable {
    fn build(propagation: &LogDistance, sensitivity: Dbm, r: f64) -> Self {
        let cfg = propagation.config();
        // The left-edge argument needs the distance term to be
        // non-decreasing in distance; otherwise run everything through
        // the exact qualifier.
        let usable = cfg.exponent > 0.0 && r.is_finite() && r > 0.0;
        if !usable {
            return RejectTable {
                r2: f64::INFINITY,
                inv_width: 0.0,
                bound: vec![2.0; REJECT_BUCKETS],
            };
        }
        // Ceiling for links without an override, as `qualify` computes it.
        let ceiling = PowerLevel::MAX.dbm().0 - (sensitivity.0 - 6.0) + 1e-9;
        let sigma = cfg.shadow_sigma_db.abs();
        let width = r * r / REJECT_BUCKETS as f64;
        let bound = (0..REJECT_BUCKETS)
            .map(|i| {
                let d_left = Meters((i as f64 * width).sqrt());
                let distance_term = propagation.distance_term_db(d_left);
                // 1e-6 dB of slack dwarfs every rounding error in the
                // chain (bucket indexing, this arithmetic, the exp), so
                // the reject stays strictly conservative; borderline
                // links fall through to the exact qualifier.
                let t = (distance_term - ceiling - 1e-6) / sigma;
                if t > 0.0 {
                    (-0.5 * t * t).exp()
                } else {
                    2.0 // near links: never fast-reject
                }
            })
            .collect();
        RejectTable {
            r2: r * r,
            inv_width: 1.0 / width,
            bound,
        }
    }

    /// The `u1` threshold for a squared link distance.
    #[inline]
    fn bound_for(&self, d2: f64) -> f64 {
        let i = ((d2 * self.inv_width) as usize).min(REJECT_BUCKETS - 1);
        self.bound[i]
    }
}

/// log2 of the mean-mW memo's slot count.
const MEMO_BITS: u32 = 14;

/// A direct-mapped memo of `(from, to, power) → mean received mW`.
///
/// Collisions simply overwrite (it is a cache of a pure function, so
/// recomputation is always safe); key 0 marks an empty slot. The memo
/// is flushed once per mutator that changes link physics (overrides,
/// moves) and is dropped with the cache itself.
#[derive(Debug, Clone)]
struct MeanMwMemo {
    /// Interleaved `(key, value)` pairs: one probe touches one cache
    /// line instead of one line in a key array plus one in a value
    /// array.
    slots: Vec<(u64, f64)>,
    /// Whether any slot was written since the last flush; a clean memo
    /// makes `clear` free.
    dirty: bool,
}

impl MeanMwMemo {
    fn new() -> Self {
        MeanMwMemo {
            slots: vec![(0, 0.0); 1 << MEMO_BITS],
            dirty: false,
        }
    }

    /// Pack a directed link + power level into a nonzero key.
    #[inline]
    fn key(from: u16, to: u16, power: PowerLevel) -> u64 {
        (((from as u64) << 24) | ((to as u64) << 8) | power.level() as u64) + 1
    }

    /// Fibonacci-hash a key to its slot.
    #[inline]
    fn slot(key: u64) -> usize {
        (key.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> (64 - MEMO_BITS)) as usize
    }

    #[inline]
    fn insert(&mut self, slot: usize, key: u64, value: f64) {
        self.slots[slot] = (key, value);
        self.dirty = true;
    }

    fn clear(&mut self) {
        if std::mem::take(&mut self.dirty) {
            self.slots.iter_mut().for_each(|s| s.0 = 0);
        }
    }
}

impl LinkCache {
    /// Install, replace or drop the `from → to` entry of the sender's
    /// sorted candidate list.
    fn patch(&mut self, from: u16, to: u16, link: Option<CandidateLink>) {
        let list = &mut self.candidates[from as usize];
        let idx = list.partition_point(|c| c.to < to);
        let present = list.get(idx).is_some_and(|c| c.to == to);
        match (link, present) {
            (Some(l), true) => list[idx] = l,
            (Some(l), false) => list.insert(idx, l),
            (None, true) => {
                list.remove(idx);
            }
            (None, false) => {}
        }
    }
}

/// Per-directed-link modifier used for failure and asymmetry injection.
#[derive(Debug, Clone, Copy, Default)]
pub struct LinkOverride {
    /// Extra attenuation applied to this directed link, dB.
    pub extra_loss_db: f64,
    /// Hard-block the link entirely (models a metal enclosure edge or a
    /// removed antenna).
    pub blocked: bool,
}

/// The outcome of one frame reception attempt at a specific receiver.
#[derive(Debug, Clone, Copy)]
pub struct RxAssessment {
    /// Received signal power at the antenna.
    pub rx_power: Dbm,
    /// Signal-to-(noise+interference) ratio in dB.
    pub snr_db: f64,
    /// Whether the frame decoded successfully (PER draw already taken).
    pub delivered: bool,
    /// The RSSI register value the receiver would report.
    pub rssi: i8,
    /// The LQI value the receiver would report.
    pub lqi: u8,
}

/// The shared medium.
///
/// ```
/// use lv_radio::{Channel, Medium, Position, PowerLevel, PropagationConfig};
/// use lv_sim::SimRng;
///
/// let medium = Medium::new(
///     vec![Position::new(0.0, 0.0), Position::new(5.0, 0.0)],
///     PropagationConfig::default(),
///     42,
/// );
/// assert!(medium.hears(0, 1, PowerLevel::MAX));
/// let mut rng = SimRng::stream(42, 1);
/// let rx = medium
///     .assess_on(0, 1, PowerLevel::MAX, 40, 0.0, Channel::DEFAULT, &mut rng)
///     .unwrap();
/// assert!(rx.lqi >= 50 && rx.lqi <= 110);
/// ```
#[derive(Debug, Clone)]
pub struct Medium {
    positions: Vec<Position>,
    propagation: LogDistance,
    /// Thermal noise floor.
    noise_floor: Dbm,
    /// Minimum power at which the radio synchronizes to a frame at all.
    sensitivity: Dbm,
    /// Power above which CCA reports the channel busy.
    cca_threshold: Dbm,
    overrides: BTreeMap<(u16, u16), LinkOverride>,
    /// Per-channel noise-floor offsets in dB (bursty interference
    /// windows). Never consulted by the reachability cache: noise moves
    /// SNR, not the sync threshold, so candidate lists stay valid.
    channel_noise: BTreeMap<u8, f64>,
    /// Nodes whose radio is administratively dead (failure injection).
    dead: Vec<bool>,
    /// Memoized link gains + candidate lists; `None` runs every query
    /// through the original brute-force computation (the two paths are
    /// bit-identical — see [`Medium::new_uncached`]).
    cache: Option<LinkCache>,
}

impl Medium {
    /// Build a medium for `positions` (indexed by node id) with default
    /// CC2420-class constants.
    ///
    /// The reachability cache is built eagerly (O(N·degree) shadowing
    /// draws).
    pub fn new(positions: Vec<Position>, config: PropagationConfig, seed: u64) -> Self {
        let mut medium = Self::new_uncached(positions, config, seed);
        medium.build_cache();
        medium
    }

    /// [`Medium::new`] without the reachability cache: every query runs
    /// the original O(N) brute-force computation. Results are
    /// bit-identical, only the cost profile changes — this is the A/B
    /// benchmark baseline and the regression-test reference, and it
    /// skips the cache build entirely.
    pub fn new_uncached(positions: Vec<Position>, config: PropagationConfig, seed: u64) -> Self {
        let n = positions.len();
        Medium {
            positions,
            propagation: LogDistance::new(config, seed),
            noise_floor: Dbm(-98.0),
            sensitivity: Dbm(-95.0),
            cca_threshold: Dbm(-77.0),
            overrides: BTreeMap::new(),
            channel_noise: BTreeMap::new(),
            dead: vec![false; n],
            cache: None,
        }
    }

    /// Whether the candidate/gain cache is active.
    pub fn cache_enabled(&self) -> bool {
        self.cache.is_some()
    }

    /// Conservative upper bound on the distance at which a link without
    /// an override can still pass [`Medium::hears`]: solve the path-loss
    /// budget at `PowerLevel::MAX` against the hears floor, crediting
    /// the largest shadowing boost the RNG can physically produce.
    fn max_qualify_range(&self) -> f64 {
        let cfg = self.propagation.config();
        if cfg.exponent <= 0.0 {
            return f64::INFINITY; // loss does not grow with distance
        }
        let budget = PowerLevel::MAX.dbm().0 - (self.sensitivity.0 - 6.0)
            + GAUSSIAN_HARD_BOUND * cfg.shadow_sigma_db
            - cfg.pl_d0_db;
        // Inflate slightly: the grid prefilter may only ever err on the
        // side of visiting too many nodes.
        cfg.d0.0 * 10f64.powf(budget / (10.0 * cfg.exponent)) * 1.000001 + 1e-6
    }

    /// Build the whole cache from current positions and overrides.
    fn build_cache(&mut self) {
        let r = self.max_qualify_range();
        let grid = SpatialGrid::new(&self.positions, r);
        let reject = RejectTable::build(&self.propagation, self.sensitivity, r);
        let candidates = (0..self.positions.len() as u16)
            .map(|from| self.build_sender_list(from, &grid, r, &reject))
            .collect();
        self.cache = Some(LinkCache {
            grid,
            max_range: r,
            candidates,
            memo: MeanMwMemo::new(),
            reject,
        });
    }

    /// Candidate list for one sender: grid-bounded scan plus every
    /// overridden link (an override can extend range, so those bypass
    /// the distance prefilter entirely).
    fn build_sender_list(
        &self,
        from: u16,
        grid: &SpatialGrid,
        r: f64,
        reject: &RejectTable,
    ) -> Vec<CandidateLink> {
        let mut ids: Vec<u16> = Vec::new();
        grid.for_each_in_square(self.positions[from as usize], r, |id| ids.push(id));
        for &(a, b) in self.overrides.keys() {
            if a == from {
                ids.push(b);
            }
        }
        ids.sort_unstable();
        ids.dedup();
        ids.into_iter()
            .filter_map(|to| self.qualify_fast(from, to, reject))
            .collect()
    }

    /// [`Medium::qualify`] behind the build-time fast rejects: the
    /// conservative circle bound (the grid square's corners poke past
    /// the range bound) and the bucketed `u1` threshold. Both may only
    /// drop links the exact qualifier would drop anyway; everything
    /// that survives runs through `qualify` unchanged. Overridden links
    /// (different ceiling, possibly range-extending) skip the rejects
    /// entirely.
    fn qualify_fast(&self, from: u16, to: u16, reject: &RejectTable) -> Option<CandidateLink> {
        if !self.overrides.is_empty() && self.overrides.contains_key(&(from, to)) {
            return self.qualify(from, to);
        }
        let a = self.positions[from as usize];
        let b = self.positions[to as usize];
        let (dx, dy) = (a.x - b.x, a.y - b.y);
        let d2 = dx * dx + dy * dy;
        if d2 > reject.r2 {
            return None;
        }
        let bound = reject.bound_for(d2);
        if bound < 2.0 && self.propagation.shadowing_u1(from, to) > bound {
            return None; // the radius early-out inside `qualify` would fire
        }
        self.qualify(from, to)
    }

    /// Evaluate one directed link for candidacy at `PowerLevel::MAX`,
    /// using the exact float operations of `mean_rx_power`/`hears`.
    ///
    /// The bulk of the build cost is the shadowing draw, so the path
    /// loss goes through the early-out qualifier with a slack-inflated
    /// ceiling (the algebraic rearrangement of the `hears` floor can
    /// drift a few ULPs from the original subtraction order); survivors
    /// are re-checked with the exact original expression, keeping
    /// candidacy bit-for-bit faithful.
    fn qualify(&self, from: u16, to: u16) -> Option<CandidateLink> {
        let ov = self.overrides.get(&(from, to)).copied().unwrap_or_default();
        if ov.blocked {
            return None;
        }
        let d = self.link_distance(from, to);
        let ceiling =
            PowerLevel::MAX.dbm().0 - ov.extra_loss_db - (self.sensitivity.0 - 6.0) + 1e-9;
        let pl = self
            .propagation
            .mean_path_loss_db_if_at_most(from, to, d, ceiling)?;
        let p = (PowerLevel::MAX.dbm() - pl) - ov.extra_loss_db;
        if p.0 >= self.sensitivity.0 - 6.0 {
            Some(CandidateLink {
                to,
                pl_db: pl,
                extra_loss_db: ov.extra_loss_db,
            })
        } else {
            None
        }
    }

    /// Re-evaluate a single directed link, patch the sender's candidate
    /// list and flush the memo. No-op without a cache.
    fn requalify_link(&mut self, from: u16, to: u16) {
        // Detached so the qualifier can borrow `self` alongside it.
        let Some(mut cache) = self.cache.take() else {
            return;
        };
        let link = self.qualify_fast(from, to, &cache.reject);
        cache.patch(from, to, link);
        cache.memo.clear();
        self.cache = Some(cache);
    }

    /// Number of nodes the medium knows about.
    pub fn node_count(&self) -> usize {
        self.positions.len()
    }

    /// Position of node `id`.
    pub fn position(&self, id: u16) -> Position {
        self.positions[id as usize]
    }

    /// Move node `id` (the "adjusting node positions" management action).
    ///
    /// Cache invalidation is precise: the moved node's own candidate
    /// list is rebuilt, and only senders within qualification range of
    /// the old or new position (plus senders holding an override toward
    /// `id`) have their `→ id` link re-evaluated, through the same fast
    /// rejects as the build. The memo is flushed once.
    pub fn set_position(&mut self, id: u16, pos: Position) {
        let old = std::mem::replace(&mut self.positions[id as usize], pos);
        // Detached so the qualifiers can borrow `self` alongside it.
        let Some(mut cache) = self.cache.take() else {
            return;
        };
        cache.grid.move_node(id, old, pos);
        let mut affected: Vec<u16> = Vec::new();
        cache
            .grid
            .for_each_in_square(old, cache.max_range, |s| affected.push(s));
        cache
            .grid
            .for_each_in_square(pos, cache.max_range, |s| affected.push(s));
        affected.extend(self.overrides.keys().filter(|k| k.1 == id).map(|k| k.0));
        affected.sort_unstable();
        affected.dedup();
        cache.candidates[id as usize] =
            self.build_sender_list(id, &cache.grid, cache.max_range, &cache.reject);
        for s in affected {
            if s != id {
                let link = self.qualify_fast(s, id, &cache.reject);
                cache.patch(s, id, link);
            }
        }
        cache.memo.clear();
        self.cache = Some(cache);
    }

    /// The noise floor.
    pub fn noise_floor(&self) -> Dbm {
        self.noise_floor
    }

    /// The CCA busy threshold.
    pub fn cca_threshold(&self) -> Dbm {
        self.cca_threshold
    }

    /// The synchronization sensitivity.
    pub fn sensitivity(&self) -> Dbm {
        self.sensitivity
    }

    /// Apply a directed-link override (failure / asymmetry injection).
    /// Invalidates exactly the one affected cached link (plus one memo
    /// flush, free when the memo is clean).
    pub fn set_override(&mut self, from: u16, to: u16, ov: LinkOverride) {
        self.overrides.insert((from, to), ov);
        self.requalify_link(from, to);
    }

    /// Remove a directed-link override. Invalidates exactly the one
    /// affected cached link (plus one memo flush, free when the memo is
    /// clean).
    pub fn clear_override(&mut self, from: u16, to: u16) {
        self.overrides.remove(&(from, to));
        self.requalify_link(from, to);
    }

    /// Administratively kill / revive a node's radio.
    pub fn set_dead(&mut self, id: u16, dead: bool) {
        self.dead[id as usize] = dead;
    }

    /// Whether a node's radio is dead.
    pub fn is_dead(&self, id: u16) -> bool {
        self.dead[id as usize]
    }

    fn link_distance(&self, from: u16, to: u16) -> Meters {
        self.positions[from as usize].distance(self.positions[to as usize])
    }

    /// Mean path loss for a directed link: cached when the link is a
    /// candidate, recomputed from scratch otherwise. The cached value is
    /// the same pure function of `(seed, positions, config)`, so both
    /// branches return the identical `f64`.
    fn pl_db(&self, from: u16, to: u16) -> f64 {
        if let Some(cache) = &self.cache {
            let list = &cache.candidates[from as usize];
            let idx = list.partition_point(|c| c.to < to);
            if let Some(c) = list.get(idx) {
                if c.to == to {
                    return c.pl_db;
                }
            }
        }
        self.propagation
            .mean_path_loss_db(from, to, self.link_distance(from, to))
    }

    /// Expected (fading-free) received power on the directed link.
    /// Returns `None` if either radio is dead or the link is blocked.
    pub fn mean_rx_power(&self, from: u16, to: u16, power: PowerLevel) -> Option<Dbm> {
        if self.dead[from as usize] || self.dead[to as usize] {
            return None;
        }
        let ov = self.overrides.get(&(from, to)).copied().unwrap_or_default();
        if ov.blocked {
            return None;
        }
        let p = power.dbm() - self.pl_db(from, to);
        Some(p - ov.extra_loss_db)
    }

    /// Iterate the plausible receivers of a transmission by `from` at
    /// `power`, ascending by node id — exactly the set for which
    /// [`Medium::hears`] returns `true`, but O(degree) with the cache
    /// instead of O(N). May include `from` itself; the event loop skips
    /// it. Dead receivers are filtered, dead senders yield nothing.
    pub fn reachable(&self, from: u16, power: PowerLevel) -> Reachable<'_> {
        let inner = if self.dead[from as usize] {
            ReachableInner::Empty
        } else if let Some(cache) = &self.cache {
            ReachableInner::Cached(cache.candidates[from as usize].iter())
        } else {
            ReachableInner::Brute {
                from,
                next: 0,
                count: self.positions.len() as u16,
            }
        };
        Reachable {
            medium: self,
            power,
            tx_dbm: power.dbm(),
            inner,
        }
    }

    /// Whether `to` can plausibly synchronize to frames from `from` at
    /// `power` (mean received power above sensitivity). Used by topology
    /// generators and by the event loop to bound the set of receivers
    /// that get an RxEnd event at all.
    pub fn hears(&self, from: u16, to: u16, power: PowerLevel) -> bool {
        // Keep a 6 dB margin below sensitivity so deep-fade receivers
        // still see (and are interfered by) borderline frames.
        self.mean_rx_power(from, to, power)
            .is_some_and(|p| p.0 >= self.sensitivity.0 - 6.0)
    }

    /// Assess one frame reception attempt on `channel`, drawing fast
    /// fading and the PER Bernoulli from `rng` (use the receiver's
    /// stream).
    ///
    /// `interference_mw` is the aggregate power (in mW) of co-channel
    /// transmissions overlapping this frame at the receiver; zero when
    /// the channel was otherwise quiet. The channel's noise-floor offset
    /// (see [`Medium::set_channel_noise`]) raises the noise floor; with
    /// none set, the floor is exactly the thermal one.
    #[allow(clippy::too_many_arguments)]
    pub fn assess_on(
        &self,
        from: u16,
        to: u16,
        power: PowerLevel,
        frame_bytes: usize,
        interference_mw: f64,
        channel: Channel,
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
                .received_power_from_pl(power.dbm(), self.pl_db(from, to), rng)
                - ov.extra_loss_db;
        if rx_power.0 < self.sensitivity.0 {
            return None; // below sync threshold: the radio never sees it
        }
        // `x + 0.0` is exact for any finite noise floor, so with no
        // offset set the floor is bit-for-bit the thermal one.
        let noise_db = self.noise_floor.0 + self.channel_noise_db(channel);
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

    /// Raise (or lower) the noise floor seen by receptions on `channel`
    /// by `delta_db` — a bursty interference window while it stays set.
    ///
    /// Cache-invalidation contract: noise offsets alter SNR (and thus
    /// PER/LQI) but never the sync-sensitivity qualification the
    /// reachability cache memoizes, so no invalidation happens here and
    /// none is needed. RNG draw counts are likewise unchanged — the
    /// fading, PER, and LQI draws happen either way.
    pub fn set_channel_noise(&mut self, channel: Channel, delta_db: f64) {
        self.channel_noise.insert(channel.number(), delta_db);
    }

    /// Remove the noise-floor offset for `channel` (end of the burst).
    pub fn clear_channel_noise(&mut self, channel: Channel) {
        self.channel_noise.remove(&channel.number());
    }

    /// Current noise-floor offset for `channel` in dB (0.0 when unset).
    pub fn channel_noise_db(&self, channel: Channel) -> f64 {
        self.channel_noise
            .get(&channel.number())
            .copied()
            .unwrap_or(0.0)
    }

    /// Received power (with fading) for CCA purposes: does `listener`
    /// sense energy from a transmission by `from` at `power`?
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

    /// [`Medium::cca_senses`] with the candidate-list fast path: result
    /// and RNG stream position are bit-identical, but a listener that is
    /// not in the sender's candidate list skips all float work.
    ///
    /// Why that is sound: non-candidates have mean rx power below
    /// `sensitivity − 6 dB` even at `PowerLevel::MAX`, the unit-σ CCA
    /// jitter is hard-bounded by [`GAUSSIAN_HARD_BOUND`], and
    /// `−101 dBm + 8.572 dB` is still far below the `−77 dBm` CCA
    /// threshold — the comparison can never pass, so only the draw's
    /// *stream position* matters, which [`SimRng::skip_gaussian`]
    /// advances exactly. Overridden links (blocked links return without
    /// drawing; extra loss shifts candidacy) fall back to the exact
    /// path, as does a cache-disabled medium.
    pub fn cca_senses_fast(
        &self,
        from: u16,
        listener: u16,
        power: PowerLevel,
        rng: &mut SimRng,
    ) -> bool {
        let Some(cache) = &self.cache else {
            return self.cca_senses(from, listener, power, rng);
        };
        if !self.overrides.is_empty() {
            return self.cca_senses(from, listener, power, rng);
        }
        if from == listener {
            return false;
        }
        if self.dead[from as usize] || self.dead[listener as usize] {
            return false; // mean_rx_power is None: no draw either way
        }
        let list = &cache.candidates[from as usize];
        let idx = list.partition_point(|c| c.to < listener);
        match list.get(idx) {
            Some(c) if c.to == listener => {
                // Same float ops as cca_senses via mean_rx_power's
                // cache hit: (dBm − pl) − extra, then the jitter test.
                let mean = (power.dbm() - c.pl_db) - c.extra_loss_db;
                let jitter = rng.normal(0.0, 1.0);
                mean.0 + jitter >= self.cca_threshold.0
            }
            _ => {
                debug_assert!(
                    self.sensitivity.0 - 6.0 + GAUSSIAN_HARD_BOUND < self.cca_threshold.0
                );
                rng.skip_gaussian();
                false
            }
        }
    }

    /// Memoized `mean_rx_power(from, to, power)` converted to mW — the
    /// lookup the interference aggregation performs per overlapping
    /// transmission. The memo stores the value the unmemoized
    /// expression produced on first computation, so hits are
    /// bit-identical; dead radios and blocked links are answered before
    /// the memo and never cached. Falls back to the plain computation
    /// when the cache is disabled.
    // lv-lint: hot
    pub fn mean_rx_mw(&mut self, from: u16, to: u16, power: PowerLevel) -> Option<f64> {
        if self.cache.is_none() {
            return self.mean_rx_power(from, to, power).map(|p| p.to_mw());
        }
        if self.dead[from as usize] || self.dead[to as usize] {
            return None;
        }
        let key = MeanMwMemo::key(from, to, power);
        let slot = MeanMwMemo::slot(key);
        if let Some(cache) = &self.cache {
            let (k, v) = cache.memo.slots[slot];
            if k == key {
                return Some(v);
            }
        }
        let mw = self.mean_rx_power(from, to, power)?.to_mw();
        if let Some(cache) = self.cache.as_mut() {
            cache.memo.insert(slot, key, mw);
        }
        Some(mw)
    }
}

/// Iterator over the plausible receivers of one transmission, yielded
/// ascending by node id. Produced by [`Medium::reachable`].
#[derive(Debug)]
pub struct Reachable<'a> {
    medium: &'a Medium,
    power: PowerLevel,
    tx_dbm: Dbm,
    inner: ReachableInner<'a>,
}

#[derive(Debug)]
enum ReachableInner<'a> {
    /// Walk the sender's candidate list; re-check power and liveness.
    Cached(std::slice::Iter<'a, CandidateLink>),
    /// No cache: scan every node through the brute-force predicate.
    Brute { from: u16, next: u16, count: u16 },
    /// Dead sender.
    Empty,
}

impl Iterator for Reachable<'_> {
    type Item = u16;

    fn next(&mut self) -> Option<u16> {
        match &mut self.inner {
            ReachableInner::Cached(iter) => {
                for c in iter {
                    if self.medium.dead[c.to as usize] {
                        continue;
                    }
                    // Same float ops as mean_rx_power: Dbm − f64, twice.
                    let p = (self.tx_dbm - c.pl_db) - c.extra_loss_db;
                    if p.0 >= self.medium.sensitivity.0 - 6.0 {
                        return Some(c.to);
                    }
                }
                None
            }
            ReachableInner::Brute { from, next, count } => {
                while *next < *count {
                    let to = *next;
                    *next += 1;
                    if self.medium.hears(*from, to, self.power) {
                        return Some(to);
                    }
                }
                None
            }
            ReachableInner::Empty => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn line_medium(n: usize, spacing: f64) -> Medium {
        let positions = (0..n)
            .map(|i| Position::new(i as f64 * spacing, 0.0))
            .collect();
        Medium::new(positions, PropagationConfig::default(), 42)
    }

    #[test]
    fn close_nodes_hear_each_other() {
        let m = line_medium(2, 5.0);
        assert!(m.hears(0, 1, PowerLevel::MAX));
        assert!(m.hears(1, 0, PowerLevel::MAX));
    }

    #[test]
    fn distant_nodes_do_not() {
        let m = line_medium(2, 500.0);
        assert!(!m.hears(0, 1, PowerLevel::MAX));
    }

    #[test]
    fn power_extends_range() {
        // Find a distance heard at MAX but not at MIN power.
        let mut found = false;
        for d in 1..100 {
            let m = line_medium(2, d as f64);
            if m.hears(0, 1, PowerLevel::MAX) && !m.hears(0, 1, PowerLevel::MIN) {
                found = true;
                break;
            }
        }
        assert!(found, "expected a distance separating MIN and MAX range");
    }

    #[test]
    fn blocked_link_yields_nothing() {
        let mut m = line_medium(2, 5.0);
        m.set_override(
            0,
            1,
            LinkOverride {
                blocked: true,
                ..Default::default()
            },
        );
        assert!(m.mean_rx_power(0, 1, PowerLevel::MAX).is_none());
        // ... but the reverse direction still works: an asymmetric break.
        assert!(m.mean_rx_power(1, 0, PowerLevel::MAX).is_some());
        let mut rng = SimRng::stream(1, 1);
        assert!(m
            .assess_on(0, 1, PowerLevel::MAX, 40, 0.0, Channel::DEFAULT, &mut rng)
            .is_none());
    }

    #[test]
    fn extra_loss_reduces_power() {
        let mut m = line_medium(2, 5.0);
        let before = m.mean_rx_power(0, 1, PowerLevel::MAX).unwrap();
        m.set_override(
            0,
            1,
            LinkOverride {
                extra_loss_db: 20.0,
                blocked: false,
            },
        );
        let after = m.mean_rx_power(0, 1, PowerLevel::MAX).unwrap();
        assert!((before.0 - after.0 - 20.0).abs() < 1e-9);
        m.clear_override(0, 1);
        assert_eq!(m.mean_rx_power(0, 1, PowerLevel::MAX).unwrap().0, before.0);
    }

    #[test]
    fn dead_node_is_silent() {
        let mut m = line_medium(2, 5.0);
        m.set_dead(0, true);
        assert!(m.is_dead(0));
        assert!(m.mean_rx_power(0, 1, PowerLevel::MAX).is_none());
        assert!(m.mean_rx_power(1, 0, PowerLevel::MAX).is_none());
        m.set_dead(0, false);
        assert!(m.mean_rx_power(0, 1, PowerLevel::MAX).is_some());
    }

    #[test]
    fn good_link_delivers_with_high_rssi_lqi() {
        let m = line_medium(2, 3.0);
        let mut rng = SimRng::stream(9, 9);
        let mut delivered = 0;
        for _ in 0..200 {
            let a = m
                .assess_on(0, 1, PowerLevel::MAX, 40, 0.0, Channel::DEFAULT, &mut rng)
                .expect("in range");
            if a.delivered {
                delivered += 1;
                assert!(a.lqi >= 100, "lqi = {}", a.lqi);
            }
        }
        assert!(delivered >= 195, "delivered = {delivered}");
    }

    #[test]
    fn interference_degrades_snr() {
        let m = line_medium(2, 10.0);
        let mut rng1 = SimRng::stream(5, 5);
        let mut rng2 = SimRng::stream(5, 5);
        let ch = Channel::DEFAULT;
        let quiet = m
            .assess_on(0, 1, PowerLevel::MAX, 40, 0.0, ch, &mut rng1)
            .unwrap();
        // Interference comparable to the signal itself.
        let interference = quiet.rx_power.to_mw();
        let noisy = m
            .assess_on(0, 1, PowerLevel::MAX, 40, interference, ch, &mut rng2)
            .unwrap();
        assert!(noisy.snr_db < quiet.snr_db - 2.0);
    }

    #[test]
    fn cca_senses_nearby_transmitter() {
        let m = line_medium(2, 3.0);
        let mut rng = SimRng::stream(6, 6);
        let senses = (0..100)
            .filter(|_| m.cca_senses(0, 1, PowerLevel::MAX, &mut rng))
            .count();
        assert!(senses >= 99);
        // Never senses itself.
        assert!(!m.cca_senses(1, 1, PowerLevel::MAX, &mut rng));
    }

    #[test]
    fn moving_a_node_changes_link() {
        let mut m = line_medium(2, 5.0);
        let before = m.mean_rx_power(0, 1, PowerLevel::MAX).unwrap();
        m.set_position(1, Position::new(50.0, 0.0));
        let after = m.mean_rx_power(0, 1, PowerLevel::MAX).unwrap();
        assert!(after.0 < before.0 - 20.0);
        assert_eq!(m.position(1), Position::new(50.0, 0.0));
    }

    /// A scattered 40-node layout with a mix of link qualities.
    fn scatter_positions(seed: u64) -> Vec<Position> {
        let mut rng = SimRng::from_seed_u64(seed);
        (0..40)
            .map(|_| Position::new(rng.unit() * 120.0, rng.unit() * 120.0))
            .collect()
    }

    fn scatter_medium(seed: u64) -> Medium {
        Medium::new(scatter_positions(seed), PropagationConfig::default(), seed)
    }

    /// The brute-force reference for `scatter_medium(seed)`.
    fn scatter_brute(seed: u64) -> Medium {
        Medium::new_uncached(scatter_positions(seed), PropagationConfig::default(), seed)
    }

    fn assert_media_agree(cached: &Medium, brute: &Medium, seed: u64) {
        assert!(cached.cache_enabled() && !brute.cache_enabled());
        let n = 40u16;
        for power in [
            PowerLevel::MIN,
            PowerLevel::new(17).unwrap(),
            PowerLevel::MAX,
        ] {
            for from in 0..n {
                let via_iter: Vec<u16> = cached.reachable(from, power).collect();
                let brute_set: Vec<u16> = brute.reachable(from, power).collect();
                assert_eq!(via_iter, brute_set, "reachable({from}) at {power:?}");
                for to in 0..n {
                    assert_eq!(
                        cached.mean_rx_power(from, to, power),
                        brute.mean_rx_power(from, to, power),
                        "mean_rx_power({from},{to})"
                    );
                    let mut r1 = SimRng::stream(seed, 0xA55E55 ^ u64::from(from) << 16);
                    let mut r2 = r1.clone();
                    let ch = Channel::DEFAULT;
                    let a1 = cached.assess_on(from, to, power, 40, 0.0, ch, &mut r1);
                    let a2 = brute.assess_on(from, to, power, 40, 0.0, ch, &mut r2);
                    assert_eq!(format!("{a1:?}"), format!("{a2:?}"), "assess({from},{to})");
                    // Same number of draws consumed ⇒ streams stay aligned.
                    assert_eq!(
                        r1.next_u64(),
                        r2.next_u64(),
                        "rng desync after assess({from},{to})"
                    );
                }
            }
        }
    }

    #[test]
    fn cache_matches_brute_force_on_static_topology() {
        assert_media_agree(&scatter_medium(11), &scatter_brute(11), 11);
    }

    #[test]
    fn cache_matches_brute_force_after_mutations() {
        let mut cached = scatter_medium(23);
        let mut brute = scatter_brute(23);
        for m in [&mut cached, &mut brute] {
            m.set_position(5, Position::new(300.0, 300.0)); // off the original bbox
            m.set_position(7, Position::new(0.5, 0.5));
            m.set_dead(3, true);
            m.set_override(
                1,
                2,
                LinkOverride {
                    blocked: true,
                    extra_loss_db: 0.0,
                },
            );
            m.set_override(
                8,
                9,
                LinkOverride {
                    blocked: false,
                    extra_loss_db: -40.0, // negative loss: extends range past the prefilter
                },
            );
            m.set_override(
                4,
                6,
                LinkOverride {
                    blocked: false,
                    extra_loss_db: 60.0,
                },
            );
            m.clear_override(4, 6);
            m.set_dead(3, false);
        }
        assert_media_agree(&cached, &brute, 23);
    }

    /// Exhaustive fast-path equivalence: identical results AND identical
    /// RNG stream positions afterwards (the digest-neutrality contract).
    fn assert_fast_paths_agree(m: &mut Medium, seed: u64) {
        let n = m.node_count() as u16;
        for power in [PowerLevel::MIN, PowerLevel::MAX] {
            for from in 0..n {
                for to in 0..n {
                    let mut r1 = SimRng::stream(seed, 0xCCA ^ ((from as u64) << 20) ^ to as u64);
                    let mut r2 = r1.clone();
                    let slow = m.cca_senses(from, to, power, &mut r1);
                    let fast = m.cca_senses_fast(from, to, power, &mut r2);
                    assert_eq!(slow, fast, "cca({from},{to}) at {power:?}");
                    assert_eq!(
                        r1.next_u64(),
                        r2.next_u64(),
                        "rng desync after cca({from},{to})"
                    );
                    let expect = m.mean_rx_power(from, to, power).map(|p| p.to_mw());
                    // Twice: the miss that installs and the hit that reads.
                    assert_eq!(m.mean_rx_mw(from, to, power), expect, "mw({from},{to})");
                    let hit = m.mean_rx_mw(from, to, power);
                    assert_eq!(
                        hit.map(f64::to_bits),
                        expect.map(f64::to_bits),
                        "memo hit({from},{to})"
                    );
                }
            }
        }
    }

    #[test]
    fn fast_paths_match_reference_on_static_topology() {
        let mut m = scatter_medium(13);
        assert_fast_paths_agree(&mut m, 13);
        assert_fast_paths_agree(&mut scatter_brute(13), 13);
    }

    #[test]
    fn fast_paths_match_reference_after_mutations() {
        let mut m = scatter_medium(29);
        // Warm the memo, then mutate: stale hits would be caught below.
        assert_fast_paths_agree(&mut m, 29);
        m.set_override(
            1,
            2,
            LinkOverride {
                blocked: true,
                extra_loss_db: 0.0,
            },
        );
        m.set_override(
            8,
            9,
            LinkOverride {
                blocked: false,
                extra_loss_db: -40.0,
            },
        );
        m.set_dead(3, true);
        m.set_position(5, Position::new(300.0, 300.0));
        assert_fast_paths_agree(&mut m, 29);
        m.clear_override(1, 2);
        m.clear_override(8, 9);
        m.set_dead(3, false);
        assert_fast_paths_agree(&mut m, 29);
    }
}
