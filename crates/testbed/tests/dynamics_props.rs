//! Replay properties for the dynamics engine: a seeded [`DynamicsPlan`]
//! is a pure function of its inputs — replaying it against an
//! identically built network reproduces the exact trace timeline and
//! counter digest — and an empty plan is bit-identical to never having
//! scheduled dynamics at all.

use lv_kernel::{DynamicsAction, Network};
use lv_radio::propagation::PropagationConfig;
use lv_radio::units::Position;
use lv_radio::{Channel, PowerLevel};
use lv_sim::{SimDuration, SimTime, Trace, TraceLevel};
use lv_testbed::experiments::counters_digest;
use lv_testbed::{DynamicsPlan, Topology};
use proptest::prelude::*;

const NODES: u16 = 5;

/// A small corridor network with the flight recorder armed, built the
/// same way every time for a given seed.
fn build_net(seed: u64) -> Network {
    let topo = Topology::Line {
        n: NODES as usize,
        spacing: 8.0,
    };
    let mut net = Network::new(topo.medium(PropagationConfig::default(), seed), seed);
    net.trace = Trace::enabled(TraceLevel::Info, 8192);
    net
}

/// One scheduled mutation: a firing time (ms) plus the primitive action.
fn action_strategy() -> impl Strategy<Value = (u64, DynamicsAction)> {
    let action = prop_oneof![
        (0..NODES, 0..NODES, 0.0f64..40.0, any::<bool>()).prop_map(
            |(from, to, extra_loss_db, blocked)| DynamicsAction::SetLinkLoss {
                from,
                to,
                extra_loss_db,
                blocked,
            }
        ),
        (0..NODES, 0..NODES).prop_map(|(from, to)| DynamicsAction::ClearLinkLoss { from, to }),
        (0.0f64..15.0).prop_map(|delta_db| DynamicsAction::SetChannelNoise {
            channel: Channel::DEFAULT,
            delta_db,
        }),
        Just(DynamicsAction::ClearChannelNoise {
            channel: Channel::DEFAULT,
        }),
        (0..NODES).prop_map(|id| DynamicsAction::NodeDown { id }),
        (0..NODES).prop_map(|id| DynamicsAction::NodeUp { id }),
        (0..NODES, 0u8..=31).prop_map(|(id, level)| DynamicsAction::SetNodePower {
            id,
            power: PowerLevel::new(level).expect("level in range"),
        }),
        (0..NODES, 11u8..=26).prop_map(|(id, ch)| DynamicsAction::SetNodeChannel {
            id,
            channel: Channel::new(ch).expect("channel in range"),
        }),
        (0..NODES, -20.0f64..60.0, -20.0f64..60.0).prop_map(|(id, x, y)| {
            DynamicsAction::MoveNode {
                id,
                position: Position::new(x, y),
            }
        }),
    ];
    (0u64..15_000, action)
}

/// Compile generated mutations into a plan (insertion order preserved,
/// so same-instant events keep a deterministic FIFO order).
fn plan_from(muts: &[(u64, DynamicsAction)]) -> DynamicsPlan {
    muts.iter().fold(DynamicsPlan::new(), |plan, (ms, action)| {
        plan.at(SimTime::from_millis(*ms), *action)
    })
}

/// Everything observable about a finished run: the global counter
/// digest, per-node stats, and the full trace timeline.
fn observe(net: &Network) -> (String, String, Vec<String>) {
    (
        counters_digest(net),
        format!("{:?}", net.node_stats()),
        net.trace.events().iter().map(|e| e.to_string()).collect(),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Replaying a seeded plan against an identically built network
    /// reproduces the run bit-for-bit: same counter digest, same
    /// per-node stats, same trace timeline.
    #[test]
    fn seeded_plan_replays_identically(
        seed in any::<u64>(),
        muts in proptest::collection::vec(action_strategy(), 0..12),
    ) {
        let plan = plan_from(&muts);
        let run = || {
            let mut net = build_net(seed);
            plan.schedule(&mut net);
            net.run_for(SimDuration::from_secs(16));
            observe(&net)
        };
        let first = run();
        let second = run();
        prop_assert_eq!(&first.0, &second.0, "counter digest must replay");
        prop_assert_eq!(&first.1, &second.1, "node stats must replay");
        prop_assert_eq!(&first.2, &second.2, "trace timeline must replay");
    }

    /// Scheduling an empty plan is observationally nothing: the run is
    /// bit-identical to a static scenario that never touched the
    /// dynamics engine.
    #[test]
    fn empty_plan_is_bit_identical_to_static(seed in any::<u64>()) {
        let plan = DynamicsPlan::new();
        prop_assert!(plan.is_empty());

        let mut with_plan = build_net(seed);
        plan.schedule(&mut with_plan);
        with_plan.run_for(SimDuration::from_secs(12));

        let mut without = build_net(seed);
        without.run_for(SimDuration::from_secs(12));

        prop_assert_eq!(observe(&with_plan), observe(&without));
    }
}
