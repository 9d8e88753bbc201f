//! Unslotted CSMA-CA with acknowledgements and retransmission.
//!
//! Implements the 802.15.4 unslotted channel-access algorithm: draw a
//! random backoff in `[0, 2^BE − 1]` unit periods, perform CCA, transmit
//! if clear, otherwise increase BE (capped) and retry up to
//! `macMaxCSMABackoffs` times. Unicast frames additionally await an
//! immediate acknowledgement and are retransmitted up to
//! `macMaxFrameRetries` times.
//!
//! The machine is time-free: it asks its caller to schedule delays by
//! returning [`MacAction`]s, and the caller feeds the resulting events
//! back in. Scheduled callbacks carry a generation `token` so that stale
//! events (an ack timeout firing after the ack already arrived) are
//! ignored deterministically.

use crate::frame::Frame;
use lv_radio::timing::PhyTiming;
use lv_sim::{SimDuration, SimRng};

/// CSMA-CA parameters (802.15.4 defaults).
#[derive(Debug, Clone, Copy)]
pub struct CsmaConfig {
    /// macMinBE.
    pub min_be: u8,
    /// macMaxBE.
    pub max_be: u8,
    /// macMaxCSMABackoffs.
    pub max_csma_backoffs: u8,
    /// macMaxFrameRetries.
    pub max_frame_retries: u8,
    /// PHY timing constants.
    pub timing: PhyTiming,
    /// How long to wait for an immediate ack before declaring it lost:
    /// turnaround + ack airtime + scheduling slack.
    pub ack_wait: SimDuration,
}

impl Default for CsmaConfig {
    fn default() -> Self {
        let timing = PhyTiming::default();
        let ack_wait = timing.turnaround + timing.frame_airtime(5) + SimDuration::from_micros(320);
        CsmaConfig {
            min_be: 3,
            max_be: 5,
            max_csma_backoffs: 4,
            max_frame_retries: 3,
            timing,
            ack_wait,
        }
    }
}

/// Why a transmission was abandoned.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TxFailReason {
    /// CCA found the channel busy too many times.
    ChannelAccessFailure,
    /// No acknowledgement after all retries.
    NoAck,
}

impl TxFailReason {
    /// The interned counter this failure increments — same name the
    /// string path would have produced via `format!("mac.failed.{self:?}")`.
    pub fn counter_id(self) -> lv_sim::CounterId {
        match self {
            TxFailReason::ChannelAccessFailure => lv_sim::CounterId::MacFailedChannelAccess,
            TxFailReason::NoAck => lv_sim::CounterId::MacFailedNoAck,
        }
    }
}

/// What the caller must do next.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MacAction {
    /// Perform a CCA after `after`; report via `on_cca(token, clear, …)`.
    ScheduleCca {
        /// Backoff delay before sampling the channel.
        after: SimDuration,
        /// Generation token echoed back so stale events are ignored.
        token: u64,
    },
    /// Begin radiating `frame` now; report completion via `on_tx_done`.
    StartTx {
        /// The frame to put on the air.
        frame: Frame,
    },
    /// Arm the ack timer; report expiry via `on_ack_timeout(token, …)`.
    ScheduleAckWait {
        /// How long to wait for the immediate acknowledgement.
        after: SimDuration,
        /// Generation token echoed back so stale timers are ignored.
        token: u64,
    },
    /// Emit an immediate acknowledgement to `dst` after the RX→TX
    /// turnaround (generated by the receive path, not by CSMA itself).
    SendAck {
        /// Node the ack is addressed to.
        dst: u16,
        /// Sequence number being acknowledged.
        seq: u8,
    },
    /// Transmission succeeded (acked, or broadcast sent).
    Delivered {
        /// The frame that was delivered.
        frame: Frame,
        /// Retransmissions it took.
        retries: u8,
    },
    /// Transmission abandoned.
    Failed {
        /// The frame that was abandoned.
        frame: Frame,
        /// Why.
        reason: TxFailReason,
    },
    /// The machine observed an event inconsistent with its own state
    /// (a spurious ack, timeout, or CCA result with no frame in
    /// flight). The machine has already reset itself to idle and
    /// dropped whatever was pending; the caller should trace and count
    /// this rather than abort.
    Anomaly {
        /// Which transition was inconsistent.
        context: &'static str,
    },
}

/// The actions one MAC call returns, held inline so that no call
/// allocates. There are never more than two: a CSMA step yields at most
/// one action, and the façade appends at most one more, the first step
/// of the next queued frame (see [`crate::Mac`]). Derefs to
/// `[MacAction]`; iterating it by value yields the actions in order.
#[derive(Clone, Copy)]
pub struct MacActions {
    len: u8,
    items: [MacAction; 2],
}

impl MacActions {
    /// No action.
    pub const NONE: MacActions = MacActions {
        len: 0,
        // Placeholders past `len` are never read.
        items: [MacAction::SendAck { dst: 0, seq: 0 }; 2],
    };

    /// Exactly `action`.
    pub fn one(action: MacAction) -> Self {
        let mut list = Self::NONE;
        list.push(action);
        list
    }

    /// Append `action`. Panics past two actions, which no MAC call
    /// returns (see the type's docs).
    pub fn push(&mut self, action: MacAction) {
        self.items[usize::from(self.len)] = action;
        self.len += 1;
    }

    /// The actions, in order.
    pub fn as_slice(&self) -> &[MacAction] {
        &self.items[..usize::from(self.len)]
    }
}

impl std::ops::Deref for MacActions {
    type Target = [MacAction];
    fn deref(&self) -> &[MacAction] {
        self.as_slice()
    }
}

impl IntoIterator for MacActions {
    type Item = MacAction;
    type IntoIter = std::iter::Take<std::array::IntoIter<MacAction, 2>>;
    fn into_iter(self) -> Self::IntoIter {
        self.items.into_iter().take(usize::from(self.len))
    }
}

impl Extend<MacAction> for MacActions {
    fn extend<I: IntoIterator<Item = MacAction>>(&mut self, actions: I) {
        for action in actions {
            self.push(action);
        }
    }
}

impl std::fmt::Debug for MacActions {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        self.as_slice().fmt(f)
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum State {
    Idle,
    Backoff,
    AwaitTxEnd,
    AwaitAck,
}

/// The CSMA-CA engine for one radio.
#[derive(Debug)]
pub struct CsmaMachine {
    cfg: CsmaConfig,
    state: State,
    current: Option<Frame>,
    be: u8,
    nb: u8,
    retries: u8,
    generation: u64,
}

impl CsmaMachine {
    /// A fresh, idle machine.
    pub fn new(cfg: CsmaConfig) -> Self {
        CsmaMachine {
            cfg,
            state: State::Idle,
            current: None,
            be: cfg.min_be,
            nb: 0,
            retries: 0,
            generation: 0,
        }
    }

    /// Configuration in use.
    pub fn config(&self) -> &CsmaConfig {
        &self.cfg
    }

    /// True when no transmission is in progress.
    pub fn is_idle(&self) -> bool {
        self.state == State::Idle
    }

    fn bump(&mut self) -> u64 {
        self.generation += 1;
        self.generation
    }

    /// A state/frame mismatch that the façade's queueing should make
    /// impossible. Per the paper's robustness requirement a stray event
    /// must never abort the simulation: reset to a safe idle state,
    /// drop anything pending, and report the anomaly for tracing.
    fn recover(&mut self, context: &'static str) -> MacActions {
        self.current = None;
        self.state = State::Idle;
        self.bump();
        MacActions::one(MacAction::Anomaly { context })
    }

    fn backoff_delay(&mut self, rng: &mut SimRng) -> SimDuration {
        let window = 1u64 << self.be; // 2^BE slots
        self.cfg
            .timing
            .unit_backoff
            .saturating_mul(rng.below(window))
    }

    /// Accept a new frame. Must be idle; the MAC façade guarantees this
    /// by queueing. Returns the initial backoff scheduling action, or an
    /// [`MacAction::Anomaly`] (dropping the new frame, keeping the one
    /// in flight) if called while busy.
    pub fn start(&mut self, frame: Frame, rng: &mut SimRng) -> MacActions {
        if !self.is_idle() {
            return MacActions::one(MacAction::Anomaly {
                context: "start while busy",
            });
        }
        self.current = Some(frame);
        self.be = self.cfg.min_be;
        self.nb = 0;
        self.retries = 0;
        self.state = State::Backoff;
        let token = self.bump();
        MacActions::one(MacAction::ScheduleCca {
            after: self.backoff_delay(rng),
            token,
        })
    }

    /// Result of a clear-channel assessment.
    pub fn on_cca(&mut self, token: u64, clear: bool, rng: &mut SimRng) -> MacActions {
        if token != self.generation || self.state != State::Backoff {
            return MacActions::NONE; // stale event
        }
        if clear {
            let Some(frame) = self.current else {
                return self.recover("cca result with no frame");
            };
            self.state = State::AwaitTxEnd;
            self.bump();
            return MacActions::one(MacAction::StartTx { frame });
        }
        // Busy: exponential backoff.
        self.nb += 1;
        self.be = (self.be + 1).min(self.cfg.max_be);
        if self.nb > self.cfg.max_csma_backoffs {
            let Some(frame) = self.current.take() else {
                return self.recover("backoff exhausted with no frame");
            };
            self.state = State::Idle;
            self.bump();
            return MacActions::one(MacAction::Failed {
                frame,
                reason: TxFailReason::ChannelAccessFailure,
            });
        }
        let token = self.bump();
        MacActions::one(MacAction::ScheduleCca {
            after: self.backoff_delay(rng),
            token,
        })
    }

    /// The radio finished radiating the current frame.
    pub fn on_tx_done(&mut self) -> MacActions {
        if self.state != State::AwaitTxEnd {
            return MacActions::NONE;
        }
        let Some(frame) = self.current.take() else {
            return self.recover("tx done with no frame");
        };
        if frame.is_broadcast() {
            // No ack expected.
            let retries = self.retries;
            self.state = State::Idle;
            self.bump();
            return MacActions::one(MacAction::Delivered { frame, retries });
        }
        self.current = Some(frame);
        self.state = State::AwaitAck;
        let token = self.bump();
        MacActions::one(MacAction::ScheduleAckWait {
            after: self.cfg.ack_wait,
            token,
        })
    }

    /// An acknowledgement arrived from `src` for sequence `seq`.
    pub fn on_ack(&mut self, src: u16, seq: u8) -> MacActions {
        if self.state != State::AwaitAck {
            return MacActions::NONE;
        }
        match self.current {
            Some(frame) if frame.dst == src && frame.seq == seq => {
                let retries = self.retries;
                self.current = None;
                self.state = State::Idle;
                self.bump();
                MacActions::one(MacAction::Delivered { frame, retries })
            }
            // Ack for someone else's frame: keep waiting for ours.
            Some(_) => MacActions::NONE,
            None => self.recover("awaiting ack with no frame"),
        }
    }

    /// The ack timer fired.
    pub fn on_ack_timeout(&mut self, token: u64, rng: &mut SimRng) -> MacActions {
        if token != self.generation || self.state != State::AwaitAck {
            return MacActions::NONE; // stale
        }
        self.retries += 1;
        if self.retries > self.cfg.max_frame_retries {
            let Some(frame) = self.current.take() else {
                return self.recover("retries exhausted with no frame");
            };
            self.state = State::Idle;
            self.bump();
            return MacActions::one(MacAction::Failed {
                frame,
                reason: TxFailReason::NoAck,
            });
        }
        // Retransmit: full CSMA attempt again.
        self.be = self.cfg.min_be;
        self.nb = 0;
        self.state = State::Backoff;
        let token = self.bump();
        MacActions::one(MacAction::ScheduleCca {
            after: self.backoff_delay(rng),
            token,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::{Frame, BROADCAST};

    fn rng() -> SimRng {
        SimRng::stream(11, 11)
    }

    fn unicast() -> Frame {
        Frame::data(1, 2, 5, vec![0; 10])
    }

    fn take_cca_token(actions: &[MacAction]) -> u64 {
        match actions {
            [MacAction::ScheduleCca { token, .. }] => *token,
            other => panic!("expected ScheduleCca, got {other:?}"),
        }
    }

    #[test]
    fn happy_path_unicast() {
        let mut m = CsmaMachine::new(CsmaConfig::default());
        let mut r = rng();
        let t = take_cca_token(&m.start(unicast(), &mut r));
        let a = m.on_cca(t, true, &mut r);
        assert!(matches!(a.as_slice(), [MacAction::StartTx { .. }]));
        let a = m.on_tx_done();
        let ack_token = match a.as_slice() {
            [MacAction::ScheduleAckWait { token, .. }] => *token,
            other => panic!("{other:?}"),
        };
        let a = m.on_ack(2, 5);
        assert!(matches!(
            a.as_slice(),
            [MacAction::Delivered { retries: 0, .. }]
        ));
        assert!(m.is_idle());
        // Stale ack timeout is ignored.
        assert!(m.on_ack_timeout(ack_token, &mut r).is_empty());
    }

    #[test]
    fn broadcast_needs_no_ack() {
        let mut m = CsmaMachine::new(CsmaConfig::default());
        let mut r = rng();
        let f = Frame::data(1, BROADCAST, 9, vec![]);
        let t = take_cca_token(&m.start(f, &mut r));
        m.on_cca(t, true, &mut r);
        let a = m.on_tx_done();
        assert!(matches!(a.as_slice(), [MacAction::Delivered { .. }]));
        assert!(m.is_idle());
    }

    #[test]
    fn busy_channel_backs_off_then_fails() {
        let cfg = CsmaConfig::default();
        let mut m = CsmaMachine::new(cfg);
        let mut r = rng();
        let mut actions = m.start(unicast(), &mut r);
        // Feed "busy" max_csma_backoffs + 1 times.
        for i in 0..=cfg.max_csma_backoffs {
            let t = take_cca_token(&actions);
            actions = m.on_cca(t, false, &mut r);
            if i < cfg.max_csma_backoffs {
                assert!(
                    matches!(actions.as_slice(), [MacAction::ScheduleCca { .. }]),
                    "attempt {i}: {actions:?}"
                );
            }
        }
        assert!(matches!(
            actions.as_slice(),
            [MacAction::Failed {
                reason: TxFailReason::ChannelAccessFailure,
                ..
            }]
        ));
        assert!(m.is_idle());
    }

    #[test]
    fn no_ack_retransmits_then_fails() {
        let cfg = CsmaConfig::default();
        let mut m = CsmaMachine::new(cfg);
        let mut r = rng();
        let mut actions = m.start(unicast(), &mut r);
        let mut transmissions = 0;
        loop {
            let current = actions;
            match current.as_slice() {
                [MacAction::ScheduleCca { token, .. }] => {
                    actions = m.on_cca(*token, true, &mut r);
                }
                [MacAction::StartTx { .. }] => {
                    transmissions += 1;
                    actions = m.on_tx_done();
                }
                [MacAction::ScheduleAckWait { token, .. }] => {
                    actions = m.on_ack_timeout(*token, &mut r);
                }
                [MacAction::Failed { reason, .. }] => {
                    assert_eq!(*reason, TxFailReason::NoAck);
                    break;
                }
                other => panic!("unexpected {other:?}"),
            }
        }
        // 1 original + max_frame_retries retransmissions.
        assert_eq!(transmissions, 1 + cfg.max_frame_retries as u32);
    }

    #[test]
    fn ack_from_wrong_node_or_seq_ignored() {
        let mut m = CsmaMachine::new(CsmaConfig::default());
        let mut r = rng();
        let t = take_cca_token(&m.start(unicast(), &mut r));
        m.on_cca(t, true, &mut r);
        m.on_tx_done();
        assert!(m.on_ack(3, 5).is_empty()); // wrong node
        assert!(m.on_ack(2, 6).is_empty()); // wrong seq
        let a = m.on_ack(2, 5);
        assert!(matches!(a.as_slice(), [MacAction::Delivered { .. }]));
    }

    #[test]
    fn stale_cca_token_ignored() {
        let mut m = CsmaMachine::new(CsmaConfig::default());
        let mut r = rng();
        let t = take_cca_token(&m.start(unicast(), &mut r));
        assert!(m.on_cca(t + 1, true, &mut r).is_empty());
        assert!(!m.is_idle());
        // The genuine token still works.
        assert!(!m.on_cca(t, true, &mut r).is_empty());
    }

    #[test]
    fn backoff_window_respects_be() {
        // With BE = 3, delay is in [0, 7] unit periods.
        let cfg = CsmaConfig::default();
        let mut seen_max = 0;
        for seed in 0..200 {
            let mut m = CsmaMachine::new(cfg);
            let mut r = SimRng::stream(seed, 1);
            let a = m.start(unicast(), &mut r);
            if let [MacAction::ScheduleCca { after, .. }] = a.as_slice() {
                let slots = after.as_micros() / cfg.timing.unit_backoff.as_micros();
                assert!(slots <= 7, "slots = {slots}");
                seen_max = seen_max.max(slots);
            }
        }
        assert!(seen_max >= 6, "window under-sampled: max {seen_max}");
    }

    #[test]
    fn start_while_busy_reports_anomaly_not_panic() {
        let mut m = CsmaMachine::new(CsmaConfig::default());
        let mut r = rng();
        m.start(unicast(), &mut r);
        let a = m.start(Frame::data(1, 3, 6, vec![]), &mut r);
        assert!(matches!(a.as_slice(), [MacAction::Anomaly { .. }]));
        // The original transmission is untouched.
        assert!(!m.is_idle());
    }

    #[test]
    fn spurious_events_never_panic() {
        // Feed every callback into every reachable state, including the
        // matching tokens, and require that the machine either ignores
        // the event or reports an Anomaly — no unwrap-driven abort.
        let mut m = CsmaMachine::new(CsmaConfig::default());
        let mut r = rng();
        // Idle: everything is stale.
        assert!(m.on_cca(0, true, &mut r).is_empty());
        assert!(m.on_tx_done().is_empty());
        assert!(m.on_ack(2, 5).is_empty());
        assert!(m.on_ack_timeout(0, &mut r).is_empty());
        // Backoff: a tx-done / ack / timeout is out of order.
        let t = take_cca_token(&m.start(unicast(), &mut r));
        assert!(m.on_tx_done().is_empty());
        assert!(m.on_ack(2, 5).is_empty());
        assert!(m.on_ack_timeout(t, &mut r).is_empty());
        // AwaitTxEnd: CCA results and acks are spurious.
        let a = m.on_cca(t, true, &mut r);
        assert!(matches!(a.as_slice(), [MacAction::StartTx { .. }]));
        assert!(m.on_cca(t, false, &mut r).is_empty());
        assert!(m.on_ack(2, 5).is_empty());
        // AwaitAck: a late CCA or tx-done is spurious; a wrong ack is
        // ignored and the right one still lands afterwards.
        m.on_tx_done();
        assert!(m.on_cca(t, true, &mut r).is_empty());
        assert!(m.on_tx_done().is_empty());
        assert!(m.on_ack(9, 9).is_empty());
        let a = m.on_ack(2, 5);
        assert!(matches!(a.as_slice(), [MacAction::Delivered { .. }]));
        assert!(m.is_idle());
    }

    #[test]
    fn retry_resets_backoff_exponent() {
        let cfg = CsmaConfig::default();
        let mut m = CsmaMachine::new(cfg);
        let mut r = rng();
        // Drive to AwaitAck with one busy CCA first (BE grew to 4).
        let t = take_cca_token(&m.start(unicast(), &mut r));
        let a = m.on_cca(t, false, &mut r);
        let t = take_cca_token(&a);
        let a = m.on_cca(t, true, &mut r);
        assert!(matches!(a.as_slice(), [MacAction::StartTx { .. }]));
        let a = m.on_tx_done();
        let token = match a.as_slice() {
            [MacAction::ScheduleAckWait { token, .. }] => *token,
            other => panic!("{other:?}"),
        };
        let a = m.on_ack_timeout(token, &mut r);
        // Next CCA windows must again fit BE = min_be.
        if let [MacAction::ScheduleCca { after, .. }] = a.as_slice() {
            let slots = after.as_micros() / cfg.timing.unit_backoff.as_micros();
            assert!(slots <= 7, "slots = {slots} (BE not reset)");
        } else {
            panic!("{a:?}");
        }
    }
}
