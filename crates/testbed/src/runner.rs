//! Parallel multi-trial experiment engine.
//!
//! [`TrialRunner`] fans N deterministic trials of an experiment across
//! a pool of worker threads and returns the per-trial results **in
//! trial order**. Three properties make this safe and reproducible:
//!
//! 1. **Seed splitting** — trial `i` of a run rooted at `root_seed`
//!    always receives `trial_seed(root_seed, i)`, derived through the
//!    same SplitMix64 expansion [`lv_sim::rng::derive_seed`] the
//!    simulator uses for per-subsystem streams. Seeds depend only on
//!    `(root_seed, i)`, never on scheduling.
//! 2. **Thread confinement** — the trial closure builds its own
//!    [`crate::Scenario`]/network inside the worker, so the
//!    `Rc<RefCell<…>>` interiors of the simulated nodes never cross a
//!    thread boundary. Only the (Send) result crosses back.
//! 3. **Ordered collection** — workers pull trial indices from a
//!    shared atomic counter but results are slotted back by index, so
//!    downstream aggregation folds them in trial order and float math
//!    is bit-identical regardless of the worker count.
//!
//! The failure-injection sweep mode ([`FailurePlan`]) composes
//! [`lv_kernel::DynamicsAction`] faults with the runner: a configurable
//! fraction of trials has a fault injected after warm-up, which turns
//! "does diagnosis still work when the deployment is broken?" into an
//! aggregate number with a confidence interval.

use lv_kernel::{DynamicsAction, Network};
use lv_sim::rng::derive_seed;
use serde::{Deserialize, Serialize};
use std::sync::atomic::{AtomicUsize, Ordering};

/// Stream label namespace for trial seeds (disjoint from the
/// simulator's per-subsystem labels, which are small integers).
const TRIAL_STREAM: u64 = 0x5452_4941_4C00_0000; // "TRIAL" << 24

/// The seed trial `index` of a run rooted at `root_seed` receives.
pub fn trial_seed(root_seed: u64, index: usize) -> u64 {
    derive_seed(root_seed, TRIAL_STREAM ^ index as u64)
}

/// Per-trial context handed to the experiment closure.
#[derive(Debug, Clone, Copy)]
pub struct TrialCtx {
    /// Trial number, `0..trials`.
    pub index: usize,
    /// This trial's derived seed (pure function of root seed + index).
    pub seed: u64,
    /// Total trials in the run.
    pub trials: usize,
}

/// A parallel multi-trial experiment runner.
///
/// ```no_run
/// use lv_testbed::runner::TrialRunner;
///
/// let rtts: Vec<f64> = TrialRunner::new(42, 16).run(|trial| {
///     // build a Scenario from trial.seed, measure something …
///     trial.seed as f64
/// });
/// assert_eq!(rtts.len(), 16);
/// ```
#[derive(Debug, Clone)]
pub struct TrialRunner {
    root_seed: u64,
    trials: usize,
    workers: usize,
}

impl TrialRunner {
    /// A runner for `trials` trials rooted at `root_seed`, with one
    /// worker per available CPU (capped at the trial count).
    pub fn new(root_seed: u64, trials: usize) -> Self {
        assert!(trials > 0, "need at least one trial");
        let cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
        TrialRunner {
            root_seed,
            trials,
            workers: cpus.min(trials).max(1),
        }
    }

    /// Override the worker-thread count (clamped to `1..=trials`).
    /// Results are identical for every choice; only wall-clock changes.
    pub fn workers(mut self, workers: usize) -> Self {
        self.workers = workers.clamp(1, self.trials);
        self
    }

    /// Root seed of the run.
    pub fn root_seed(&self) -> u64 {
        self.root_seed
    }

    /// Number of trials.
    pub fn trials(&self) -> usize {
        self.trials
    }

    /// The seeds the trials will receive, in trial order.
    pub fn trial_seeds(&self) -> Vec<u64> {
        (0..self.trials)
            .map(|i| trial_seed(self.root_seed, i))
            .collect()
    }

    /// Run `trial_fn` once per trial and return results in trial order.
    ///
    /// `trial_fn` must treat `TrialCtx` as its only source of
    /// randomness for the determinism guarantee to hold. Panics in a
    /// trial propagate after all workers stop.
    pub fn run<T, F>(&self, trial_fn: F) -> Vec<T>
    where
        T: Send,
        F: Fn(TrialCtx) -> T + Sync,
    {
        let trials = self.trials;
        if self.workers == 1 {
            // Serial fast path: no threads, same ordering semantics.
            return (0..trials)
                .map(|index| {
                    trial_fn(TrialCtx {
                        index,
                        seed: trial_seed(self.root_seed, index),
                        trials,
                    })
                })
                .collect();
        }
        let next = AtomicUsize::new(0);
        let trial_fn = &trial_fn;
        let mut slots: Vec<Option<T>> = (0..trials).map(|_| None).collect();
        crossbeam::scope(|scope| {
            let handles: Vec<_> = (0..self.workers)
                .map(|_| {
                    scope.spawn(|_| {
                        let mut produced: Vec<(usize, T)> = Vec::new();
                        loop {
                            let index = next.fetch_add(1, Ordering::Relaxed);
                            if index >= trials {
                                break;
                            }
                            let ctx = TrialCtx {
                                index,
                                seed: trial_seed(self.root_seed, index),
                                trials,
                            };
                            produced.push((index, trial_fn(ctx)));
                        }
                        produced
                    })
                })
                .collect();
            for h in handles {
                for (index, value) in h.join().expect("trial worker panicked") {
                    slots[index] = Some(value);
                }
            }
        })
        .expect("trial scope");
        slots
            .into_iter()
            .map(|s| s.expect("every trial produced a result"))
            .collect()
    }
}

/// What to break in a failure-injection trial.
///
/// Node and link coordinates refer to the scenario's topology node
/// ids. Each mode is one or two [`DynamicsAction`]s.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum FailureMode {
    /// Power off one node ([`DynamicsAction::NodeDown`]).
    KillNode {
        /// The node to power off.
        id: u16,
    },
    /// Hard-break both directions of a link (a blocking
    /// [`DynamicsAction::SetLinkLoss`] each way).
    BreakLink {
        /// One endpoint.
        a: u16,
        /// The other endpoint.
        b: u16,
    },
    /// Attenuate one direction of a link
    /// ([`DynamicsAction::SetLinkLoss`]).
    AttenuateLink {
        /// Transmitting side.
        from: u16,
        /// Receiving side.
        to: u16,
        /// Extra path loss, dB.
        loss_db: f64,
    },
}

impl FailureMode {
    /// Schedule the fault on a running network at its current time; it
    /// takes effect as the network's next event.
    pub fn apply(&self, net: &mut Network) {
        let now = net.now();
        match *self {
            FailureMode::KillNode { id } => {
                net.schedule_dynamics(now, DynamicsAction::NodeDown { id });
            }
            FailureMode::BreakLink { a, b } => {
                for (from, to) in [(a, b), (b, a)] {
                    let action = DynamicsAction::SetLinkLoss {
                        from,
                        to,
                        extra_loss_db: 0.0,
                        blocked: true,
                    };
                    net.schedule_dynamics(now, action);
                }
            }
            FailureMode::AttenuateLink { from, to, loss_db } => {
                let action = DynamicsAction::SetLinkLoss {
                    from,
                    to,
                    extra_loss_db: loss_db,
                    blocked: false,
                };
                net.schedule_dynamics(now, action);
            }
        }
    }

    /// Short human/JSON label for result rows.
    pub fn label(&self) -> String {
        match *self {
            FailureMode::KillNode { id } => format!("kill-node-{id}"),
            FailureMode::BreakLink { a, b } => format!("break-link-{a}-{b}"),
            FailureMode::AttenuateLink { from, to, loss_db } => {
                format!("attenuate-{from}-{to}-{loss_db}dB")
            }
        }
    }
}

/// A failure mode applied to a deterministic fraction of trials.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FailurePlan {
    /// What breaks.
    pub mode: FailureMode,
    /// Fraction of trials (0.0–1.0) that get the fault.
    pub fraction: f64,
}

impl FailurePlan {
    /// Fault `fraction` of trials with `mode`.
    pub fn new(mode: FailureMode, fraction: f64) -> Self {
        assert!(
            (0.0..=1.0).contains(&fraction),
            "fraction must be in [0, 1]"
        );
        FailurePlan { mode, fraction }
    }

    /// How many of `trials` trials are faulted (rounded half-up so a
    /// 0.5 fraction of 8 trials faults exactly 4).
    pub fn affected_count(&self, trials: usize) -> usize {
        ((self.fraction * trials as f64) + 0.5).floor() as usize
    }

    /// Whether trial `index` (of `trials`) receives the fault.
    ///
    /// Deterministic by construction: the first `affected_count`
    /// trials are faulted. Which *seeds* those indices map to is
    /// already randomized by the seed split, so this does not bias the
    /// sample.
    pub fn applies_to(&self, index: usize, trials: usize) -> bool {
        index < self.affected_count(trials)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn seeds_are_stable_and_distinct() {
        let r = TrialRunner::new(42, 8);
        let seeds = r.trial_seeds();
        assert_eq!(seeds, TrialRunner::new(42, 8).trial_seeds());
        let mut uniq = seeds.clone();
        uniq.sort_unstable();
        uniq.dedup();
        assert_eq!(uniq.len(), 8, "trial seeds collided: {seeds:?}");
        // Seeds don't depend on the worker count.
        assert_eq!(seeds, TrialRunner::new(42, 8).workers(3).trial_seeds());
    }

    #[test]
    fn results_come_back_in_trial_order() {
        for workers in [1, 2, 4] {
            let out = TrialRunner::new(1, 16).workers(workers).run(|t| {
                // Stagger completion so later trials often finish first.
                std::thread::sleep(std::time::Duration::from_millis((16 - t.index as u64) % 5));
                (t.index, t.seed)
            });
            for (i, &(index, seed)) in out.iter().enumerate() {
                assert_eq!(index, i);
                assert_eq!(seed, trial_seed(1, i));
            }
        }
    }

    #[test]
    fn every_trial_runs_exactly_once() {
        static RUNS: AtomicUsize = AtomicUsize::new(0);
        let out = TrialRunner::new(9, 33).workers(5).run(|t| {
            RUNS.fetch_add(1, Ordering::Relaxed);
            t.index
        });
        assert_eq!(RUNS.load(Ordering::Relaxed), 33);
        assert_eq!(out.len(), 33);
    }

    #[test]
    fn worker_count_is_clamped() {
        let r = TrialRunner::new(0, 4).workers(64);
        assert_eq!(r.run(|t| t.index).len(), 4);
        let r = TrialRunner::new(0, 4).workers(0);
        assert_eq!(r.run(|t| t.index).len(), 4);
    }

    #[test]
    #[should_panic]
    fn zero_trials_rejected() {
        let _ = TrialRunner::new(0, 0);
    }

    #[test]
    fn failure_plan_fraction_arithmetic() {
        let plan = FailurePlan::new(FailureMode::KillNode { id: 4 }, 0.5);
        assert_eq!(plan.affected_count(8), 4);
        assert!(plan.applies_to(0, 8));
        assert!(plan.applies_to(3, 8));
        assert!(!plan.applies_to(4, 8));
        let none = FailurePlan::new(FailureMode::KillNode { id: 4 }, 0.0);
        assert_eq!(none.affected_count(8), 0);
        let all = FailurePlan::new(FailureMode::KillNode { id: 4 }, 1.0);
        assert_eq!(all.affected_count(8), 8);
    }

    #[test]
    fn failure_mode_labels() {
        assert_eq!(FailureMode::KillNode { id: 4 }.label(), "kill-node-4");
        assert_eq!(
            FailureMode::BreakLink { a: 4, b: 5 }.label(),
            "break-link-4-5"
        );
        assert_eq!(
            FailureMode::AttenuateLink {
                from: 4,
                to: 5,
                loss_db: 20.0
            }
            .label(),
            "attenuate-4-5-20dB"
        );
    }

    #[test]
    fn failure_plan_serializes() {
        let plan = FailurePlan::new(
            FailureMode::AttenuateLink {
                from: 1,
                to: 2,
                loss_db: 25.0,
            },
            0.25,
        );
        let json = serde_json::to_string(&plan).unwrap();
        let back: FailurePlan = serde_json::from_str(&json).unwrap();
        assert_eq!(back, plan);
    }
}
