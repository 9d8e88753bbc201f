//! Time-varying world dynamics: a seeded, schedulable timeline of
//! mid-run mutations.
//!
//! Every scenario used to be frozen at t=0, yet the paper's whole point
//! is diagnosing communication paths whose quality shifts underneath
//! the user. A [`DynamicsPlan`] is the missing half: a declarative,
//! deterministic schedule of link-attenuation ramps (RADIUS-style
//! gradual degradation), bursty interference windows (noise-floor steps
//! on a channel), node churn (death and cold reboot), and channel /
//! power / placement reconfiguration. The plan compiles down to
//! [`DynamicsAction`] primitives that [`lv_kernel::Network`] dispatches
//! through its event queue, so mutations interleave deterministically
//! with traffic and replay bit-identically for a given seed.
//!
//! An **empty plan schedules nothing** — a run with an empty plan is
//! bit-identical to a static run, which the determinism CI gate and the
//! replay proptests both enforce.

use lv_kernel::{DynamicsAction, Network};
use lv_radio::units::Position;
use lv_radio::{Channel, PowerLevel};
use lv_sim::{SimDuration, SimRng, SimTime};

/// One scheduled mutation.
#[derive(Debug, Clone, PartialEq)]
pub struct DynamicsEvent {
    /// Virtual time at which the mutation fires.
    pub at: SimTime,
    /// The mutation.
    pub action: DynamicsAction,
}

/// A deterministic timeline of world mutations (builder-style DSL).
///
/// ```
/// use lv_testbed::DynamicsPlan;
/// use lv_sim::{SimDuration, SimTime};
///
/// let plan = DynamicsPlan::new()
///     // 4 → 5 loses 5 dB every 10 s, eight times, starting at t=30 s
///     .link_ramp_symmetric(
///         4, 5,
///         SimTime::from_secs(30), SimDuration::from_secs(10), 8, 5.0,
///     )
///     // a 20 s interference burst on channel 17 at t=60 s
///     .noise_burst(
///         lv_radio::Channel::DEFAULT,
///         SimTime::from_secs(60), SimDuration::from_secs(20), 12.0,
///     )
///     // node 3 power-cycles at t=90 s, back at t=110 s
///     .node_churn(3, SimTime::from_secs(90), Some(SimTime::from_secs(110)));
/// assert_eq!(plan.len(), 2 * 8 + 2 + 2);
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct DynamicsPlan {
    events: Vec<DynamicsEvent>,
}

impl DynamicsPlan {
    /// An empty plan (bit-identical to a static run when scheduled).
    pub fn new() -> Self {
        DynamicsPlan::default()
    }

    /// The scheduled events, in insertion order.
    pub fn events(&self) -> &[DynamicsEvent] {
        &self.events
    }

    /// Number of scheduled mutations.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// True when nothing is scheduled.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Schedule one raw action at `at`.
    pub fn at(mut self, at: SimTime, action: DynamicsAction) -> Self {
        self.events.push(DynamicsEvent { at, action });
        self
    }

    /// RADIUS-style gradual degradation of the directed link
    /// `from → to`: starting at `start`, the link's extra path loss
    /// steps to `db_per_step`, `2·db_per_step`, … every `step` until
    /// `steps` steps have been applied (the override is absolute, so
    /// each step replaces the previous one).
    pub fn link_ramp(
        mut self,
        from: u16,
        to: u16,
        start: SimTime,
        step: SimDuration,
        steps: u32,
        db_per_step: f64,
    ) -> Self {
        let mut at = start;
        for k in 1..=steps {
            self.events.push(DynamicsEvent {
                at,
                action: DynamicsAction::SetLinkLoss {
                    from,
                    to,
                    extra_loss_db: db_per_step * k as f64,
                    blocked: false,
                },
            });
            at += step;
        }
        self
    }

    /// [`DynamicsPlan::link_ramp`] applied to both directions of the
    /// link — an obstacle or enclosure degrades the path, not one
    /// antenna.
    pub fn link_ramp_symmetric(
        self,
        a: u16,
        b: u16,
        start: SimTime,
        step: SimDuration,
        steps: u32,
        db_per_step: f64,
    ) -> Self {
        self.link_ramp(a, b, start, step, steps, db_per_step)
            .link_ramp(b, a, start, step, steps, db_per_step)
    }

    /// Hard-break both directions of the `a ↔ b` link at `at` (a
    /// blocking override each way), the counterpart of
    /// [`DynamicsPlan::link_repair`].
    pub fn link_break(self, a: u16, b: u16, at: SimTime) -> Self {
        let block = |from, to| DynamicsAction::SetLinkLoss {
            from,
            to,
            extra_loss_db: 0.0,
            blocked: true,
        };
        self.at(at, block(a, b)).at(at, block(b, a))
    }

    /// Remove any override on both directions of the `a ↔ b` link at
    /// `at` (the obstacle is removed; quality recovers).
    pub fn link_repair(self, a: u16, b: u16, at: SimTime) -> Self {
        self.at(at, DynamicsAction::ClearLinkLoss { from: a, to: b })
            .at(at, DynamicsAction::ClearLinkLoss { from: b, to: a })
    }

    /// A bursty interference window: the noise floor on `channel` rises
    /// by `delta_db` at `start` and falls back after `duration`.
    pub fn noise_burst(
        self,
        channel: Channel,
        start: SimTime,
        duration: SimDuration,
        delta_db: f64,
    ) -> Self {
        self.at(start, DynamicsAction::SetChannelNoise { channel, delta_db })
            .at(
                start + duration,
                DynamicsAction::ClearChannelNoise { channel },
            )
    }

    /// Node churn: `id` dies at `down_at` and (optionally) cold-reboots
    /// at `up_at`.
    pub fn node_churn(self, id: u16, down_at: SimTime, up_at: Option<SimTime>) -> Self {
        let plan = self.at(down_at, DynamicsAction::NodeDown { id });
        match up_at {
            Some(at) => plan.at(at, DynamicsAction::NodeUp { id }),
            None => plan,
        }
    }

    /// Retune `id`'s radio channel at `at`.
    pub fn set_channel(self, id: u16, at: SimTime, channel: Channel) -> Self {
        self.at(at, DynamicsAction::SetNodeChannel { id, channel })
    }

    /// Change `id`'s transmit power at `at`.
    pub fn set_power(self, id: u16, at: SimTime, power: PowerLevel) -> Self {
        self.at(at, DynamicsAction::SetNodePower { id, power })
    }

    /// Move `id` to `position` at `at`.
    pub fn move_node(self, id: u16, at: SimTime, position: Position) -> Self {
        self.at(at, DynamicsAction::MoveNode { id, position })
    }

    /// Seeded random churn: `events` down/up cycles drawn from a
    /// dedicated RNG stream — node, death time inside `window`, and an
    /// outage of `[min_outage, min_outage + outage_spread)` are all
    /// derived from `seed`, so the same seed always yields the same
    /// timeline.
    pub fn random_churn(
        self,
        seed: u64,
        nodes: &[u16],
        window: (SimTime, SimTime),
        events: usize,
        min_outage: SimDuration,
        outage_spread: SimDuration,
    ) -> Self {
        let mut rng = SimRng::stream(seed, 0x4459_4E43_4855_524E); // "DYNCHURN"
        let span = window.1.saturating_since(window.0);
        let mut plan = self;
        for _ in 0..events {
            if nodes.is_empty() || span.is_zero() {
                break;
            }
            let id = nodes[rng.below(nodes.len() as u64) as usize];
            let down_at = window.0 + SimDuration::from_nanos(rng.below(span.as_nanos()));
            let outage = min_outage
                + if outage_spread.is_zero() {
                    SimDuration::ZERO
                } else {
                    SimDuration::from_nanos(rng.below(outage_spread.as_nanos()))
                };
            plan = plan.node_churn(id, down_at, Some(down_at + outage));
        }
        plan
    }

    /// Seeded random interference bursts on `channel`: `events` windows
    /// with start times inside `window` and lengths in
    /// `[min_len, min_len + len_spread)`, all derived from `seed`.
    #[allow(clippy::too_many_arguments)]
    pub fn random_noise_bursts(
        self,
        seed: u64,
        channel: Channel,
        window: (SimTime, SimTime),
        events: usize,
        delta_db: f64,
        min_len: SimDuration,
        len_spread: SimDuration,
    ) -> Self {
        let mut rng = SimRng::stream(seed, 0x4459_4E42_5552_5354); // "DYNBURST"
        let span = window.1.saturating_since(window.0);
        let mut plan = self;
        for _ in 0..events {
            if span.is_zero() {
                break;
            }
            let start = window.0 + SimDuration::from_nanos(rng.below(span.as_nanos()));
            let len = min_len
                + if len_spread.is_zero() {
                    SimDuration::ZERO
                } else {
                    SimDuration::from_nanos(rng.below(len_spread.as_nanos()))
                };
            plan = plan.noise_burst(channel, start, len, delta_db);
        }
        plan
    }

    /// Schedule every event of the plan onto `net`'s event queue.
    /// Events are scheduled in insertion order, so same-instant
    /// mutations keep their plan order (FIFO tie-breaking), and events
    /// already past fire at once, in plan order. An empty plan
    /// schedules nothing and leaves the run bit-identical to a static
    /// scenario.
    pub fn schedule(&self, net: &mut Network) {
        for ev in &self.events {
            net.schedule_dynamics(ev.at, ev.action.clone());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ramp_steps_are_cumulative_and_ordered() {
        let plan = DynamicsPlan::new().link_ramp(
            1,
            2,
            SimTime::from_secs(10),
            SimDuration::from_secs(5),
            3,
            4.0,
        );
        assert_eq!(plan.len(), 3);
        let losses: Vec<f64> = plan
            .events()
            .iter()
            .map(|e| match e.action {
                DynamicsAction::SetLinkLoss { extra_loss_db, .. } => extra_loss_db,
                _ => panic!("unexpected action"),
            })
            .collect();
        assert_eq!(losses, vec![4.0, 8.0, 12.0]);
        assert_eq!(plan.events()[0].at, SimTime::from_secs(10));
        assert_eq!(plan.events()[2].at, SimTime::from_secs(20));
    }

    #[test]
    fn noise_burst_opens_and_closes() {
        let plan = DynamicsPlan::new().noise_burst(
            Channel::DEFAULT,
            SimTime::from_secs(1),
            SimDuration::from_secs(2),
            10.0,
        );
        assert_eq!(plan.len(), 2);
        assert_eq!(plan.events()[1].at, SimTime::from_secs(3));
        assert!(matches!(
            plan.events()[1].action,
            DynamicsAction::ClearChannelNoise { .. }
        ));
    }

    #[test]
    fn seeded_builders_are_reproducible() {
        let mk = || {
            DynamicsPlan::new()
                .random_churn(
                    9,
                    &[1, 2, 3],
                    (SimTime::from_secs(5), SimTime::from_secs(50)),
                    4,
                    SimDuration::from_secs(2),
                    SimDuration::from_secs(8),
                )
                .random_noise_bursts(
                    9,
                    Channel::DEFAULT,
                    (SimTime::from_secs(5), SimTime::from_secs(50)),
                    3,
                    8.0,
                    SimDuration::from_secs(1),
                    SimDuration::from_secs(4),
                )
        };
        assert_eq!(mk(), mk());
        assert_eq!(mk().len(), 4 * 2 + 3 * 2);
    }

    #[test]
    fn empty_plan_schedules_nothing() {
        let plan = DynamicsPlan::new();
        assert!(plan.is_empty());
        assert_eq!(plan.events().len(), 0);
    }
}
