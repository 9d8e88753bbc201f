//! The MAC façade: queue + CSMA + duplicate suppression + ack generation.
//!
//! One [`Mac`] instance lives in each simulated node. The node's event
//! loop calls into it and executes the returned [`MacAction`]s; the MAC
//! itself never touches the event queue. When a transmission finishes
//! (delivered or failed), the next queued frame starts automatically and
//! its scheduling actions are appended to the returned list.

use crate::csma::{CsmaConfig, CsmaMachine, MacAction, MacActions};
use crate::frame::{Frame, FrameKind, BROADCAST};
use crate::queue::TxQueue;
use lv_sim::{CounterId, Counters, SimRng};
use std::collections::BTreeMap;

/// A frame handed up to the network layer, with the PHY metadata the
/// LiteView commands report.
///
/// The frame travels by value: it is a flat inline copy (no heap), and
/// the kernel runs one frame's receivers one after another from the
/// single copy it parks for the frame's airtime.
#[derive(Debug, Clone, Copy)]
pub struct Reception {
    /// The decoded frame.
    pub frame: Frame,
    /// RSSI register value of this reception.
    pub rssi: i8,
    /// LQI of this reception.
    pub lqi: u8,
    /// SNR in dB (simulator-internal; not visible to firmware).
    pub snr_db: f64,
}

/// Per-node MAC state.
pub struct Mac {
    id: u16,
    csma: CsmaMachine,
    queue: TxQueue,
    next_seq: u8,
    /// Last sequence number delivered upward, per source — suppresses the
    /// duplicate a retransmission causes when the ack (not the data) was
    /// lost.
    last_delivered: BTreeMap<u16, u8>,
    /// Per-node link-layer counters (attempts, backoffs, CCA outcomes,
    /// retries, drops) — the MAC slice of the node's flight recorder.
    counters: Counters,
}

impl Mac {
    /// Create the MAC for node `id`.
    pub fn new(id: u16, cfg: CsmaConfig, queue_capacity: usize) -> Self {
        Mac {
            id,
            csma: CsmaMachine::new(cfg),
            queue: TxQueue::new(queue_capacity),
            next_seq: 0,
            last_delivered: BTreeMap::new(),
            counters: Counters::new(),
        }
    }

    /// This node's link-layer counters.
    pub fn counters(&self) -> &Counters {
        &self.counters
    }

    /// Count the observable outcomes in a batch of actions.
    fn note(&mut self, actions: &[MacAction]) {
        for a in actions {
            match a {
                MacAction::StartTx { .. } => self.counters.incr_id(CounterId::MacTxAttempt),
                MacAction::Delivered { retries, .. } => {
                    self.counters.incr_id(CounterId::MacDelivered);
                    self.counters
                        .add_id(CounterId::MacRetries, u64::from(*retries));
                }
                MacAction::Failed { reason, .. } => {
                    self.counters.incr_id(reason.counter_id());
                }
                MacAction::Anomaly { .. } => self.counters.incr_id(CounterId::MacAnomaly),
                _ => {}
            }
        }
    }

    /// This node's id.
    pub fn id(&self) -> u16 {
        self.id
    }

    /// Current transmit-queue occupancy (the ping report's `Queue` field).
    pub fn queue_len(&self) -> usize {
        self.queue.len() + usize::from(!self.csma.is_idle())
    }

    /// Submit a payload for transmission. Assigns the link sequence
    /// number, queues the frame, and starts CSMA if the radio is idle.
    /// Returns `(accepted, actions)`.
    pub fn send(
        &mut self,
        kind: FrameKind,
        dst: u16,
        payload: impl Into<crate::frame::FramePayload>,
        rng: &mut SimRng,
    ) -> (bool, MacActions) {
        let seq = self.next_seq;
        self.next_seq = self.next_seq.wrapping_add(1);
        let frame = Frame {
            kind,
            src: self.id,
            dst,
            seq,
            payload: payload.into(),
        };
        if !self.queue.push(frame) {
            self.counters.incr_id(CounterId::MacQueueDrop);
            return (false, MacActions::NONE);
        }
        self.counters.incr_id(CounterId::MacSubmit);
        let actions = self.pump(rng);
        self.note(&actions);
        (true, actions)
    }

    /// Start the next queued frame if the machine is idle.
    fn pump(&mut self, rng: &mut SimRng) -> MacActions {
        if !self.csma.is_idle() {
            return MacActions::NONE;
        }
        match self.queue.pop() {
            Some(frame) => self.csma.start(frame, rng),
            None => MacActions::NONE,
        }
    }

    /// When CSMA reports a terminal outcome, chain the next frame.
    fn chain(&mut self, mut actions: MacActions, rng: &mut SimRng) -> MacActions {
        let terminal = actions.iter().any(|a| {
            matches!(
                a,
                MacAction::Delivered { .. } | MacAction::Failed { .. } | MacAction::Anomaly { .. }
            )
        });
        if terminal {
            actions.extend(self.pump(rng));
        }
        self.note(&actions);
        actions
    }

    /// CCA callback (see [`MacAction::ScheduleCca`]).
    pub fn on_cca(&mut self, token: u64, clear: bool, rng: &mut SimRng) -> MacActions {
        let a = self.csma.on_cca(token, clear, rng);
        if !a.is_empty() {
            // A fresh (non-stale) assessment; stale ones return nothing.
            self.counters.incr_id(if clear {
                CounterId::MacCcaClear
            } else {
                CounterId::MacCcaBusy
            });
        }
        self.chain(a, rng)
    }

    /// The radio finished radiating the current frame.
    pub fn on_tx_done(&mut self, rng: &mut SimRng) -> MacActions {
        let a = self.csma.on_tx_done();
        self.chain(a, rng)
    }

    /// Ack-wait timer callback (see [`MacAction::ScheduleAckWait`]).
    pub fn on_ack_timeout(&mut self, token: u64, rng: &mut SimRng) -> MacActions {
        let a = self.csma.on_ack_timeout(token, rng);
        if !a.is_empty() {
            self.counters.incr_id(CounterId::MacAckTimeout);
        }
        self.chain(a, rng)
    }

    /// A frame was decoded by this node's radio. Returns MAC actions
    /// (possibly an ack to send, possibly progress on our own pending
    /// transmission) and, when the frame carries payload for the upper
    /// layer, the reception itself.
    pub fn on_frame_received(
        &mut self,
        rx: Reception,
        rng: &mut SimRng,
    ) -> (MacActions, Option<Reception>) {
        let frame = &rx.frame;
        match frame.kind {
            FrameKind::Ack => {
                if frame.dst == self.id {
                    let a = self.csma.on_ack(frame.src, frame.seq);
                    (self.chain(a, rng), None)
                } else {
                    (MacActions::NONE, None)
                }
            }
            FrameKind::Data | FrameKind::Beacon => {
                if frame.dst != self.id && frame.dst != BROADCAST {
                    // Not for us; radios in promiscuous-off mode drop it.
                    return (MacActions::NONE, None);
                }
                let mut actions = MacActions::NONE;
                let mut duplicate = false;
                if frame.dst == self.id {
                    // Unicast: always ack (even duplicates — the sender's
                    // ack may have been the lost packet).
                    actions.push(MacAction::SendAck {
                        dst: frame.src,
                        seq: frame.seq,
                    });
                    duplicate = self.last_delivered.get(&frame.src) == Some(&frame.seq);
                    self.last_delivered.insert(frame.src, frame.seq);
                }
                let deliver = if duplicate { None } else { Some(rx) };
                (actions, deliver)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rng() -> SimRng {
        SimRng::stream(21, 4)
    }

    fn mac(id: u16) -> Mac {
        Mac::new(id, CsmaConfig::default(), TxQueue::DEFAULT_CAPACITY)
    }

    fn rx(frame: Frame) -> Reception {
        Reception {
            frame,
            rssi: -5,
            lqi: 106,
            snr_db: 30.0,
        }
    }

    /// Drive a fresh submission to the StartTx action, returning the frame.
    fn drive_to_tx(m: &mut Mac, dst: u16, r: &mut SimRng) -> Frame {
        let (ok, actions) = m.send(FrameKind::Data, dst, vec![1, 2, 3], r);
        assert!(ok);
        let token = match actions.as_slice() {
            [MacAction::ScheduleCca { token, .. }] => *token,
            other => panic!("{other:?}"),
        };
        let actions = m.on_cca(token, true, r);
        match actions.as_slice() {
            [MacAction::StartTx { frame }] => *frame,
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn sequence_numbers_increment() {
        let mut m = mac(1);
        let mut r = rng();
        let f0 = drive_to_tx(&mut m, 2, &mut r);
        assert_eq!(f0.seq, 0);
        // Finish: tx done + ack.
        m.on_tx_done(&mut r);
        m.on_frame_received(rx(Frame::ack(2, 1, 0)), &mut r);
        let f1 = drive_to_tx(&mut m, 2, &mut r);
        assert_eq!(f1.seq, 1);
    }

    #[test]
    fn queue_len_counts_in_flight_frame() {
        let mut m = mac(1);
        let mut r = rng();
        assert_eq!(m.queue_len(), 0);
        drive_to_tx(&mut m, 2, &mut r);
        assert_eq!(m.queue_len(), 1); // in flight
        let (ok, a) = m.send(FrameKind::Data, 2, vec![], &mut r);
        assert!(ok);
        assert!(a.is_empty()); // busy: queued only
        assert_eq!(m.queue_len(), 2);
    }

    #[test]
    fn next_frame_chains_after_delivery() {
        let mut m = mac(1);
        let mut r = rng();
        drive_to_tx(&mut m, 2, &mut r);
        m.send(FrameKind::Data, 3, vec![9], &mut r);
        m.on_tx_done(&mut r);
        let (actions, _) = m.on_frame_received(rx(Frame::ack(2, 1, 0)), &mut r);
        // Delivered for frame 0 AND the CCA schedule for frame 1.
        assert!(actions
            .iter()
            .any(|a| matches!(a, MacAction::Delivered { .. })));
        assert!(actions
            .iter()
            .any(|a| matches!(a, MacAction::ScheduleCca { .. })));
    }

    #[test]
    fn unicast_reception_acks_and_delivers() {
        let mut m = mac(2);
        let mut r = rng();
        let f = Frame::data(1, 2, 7, vec![42]);
        let (actions, delivered) = m.on_frame_received(rx(f), &mut r);
        assert_eq!(actions.as_slice(), [MacAction::SendAck { dst: 1, seq: 7 }]);
        assert_eq!(delivered.unwrap().frame.payload, vec![42]);
    }

    #[test]
    fn duplicate_is_acked_but_not_redelivered() {
        let mut m = mac(2);
        let mut r = rng();
        let f = Frame::data(1, 2, 7, vec![42]);
        let (_, first) = m.on_frame_received(rx(f), &mut r);
        assert!(first.is_some());
        let (actions, second) = m.on_frame_received(rx(f), &mut r);
        assert!(second.is_none(), "duplicate delivered");
        assert_eq!(actions.as_slice(), [MacAction::SendAck { dst: 1, seq: 7 }]);
    }

    #[test]
    fn broadcast_not_acked_but_delivered() {
        let mut m = mac(2);
        let mut r = rng();
        let f = Frame::data(1, BROADCAST, 0, vec![1]);
        let (actions, delivered) = m.on_frame_received(rx(f), &mut r);
        assert!(actions.is_empty());
        assert!(delivered.is_some());
    }

    #[test]
    fn frame_for_other_node_dropped() {
        let mut m = mac(2);
        let mut r = rng();
        let f = Frame::data(1, 3, 0, vec![1]);
        let (actions, delivered) = m.on_frame_received(rx(f), &mut r);
        assert!(actions.is_empty());
        assert!(delivered.is_none());
    }

    #[test]
    fn ack_for_other_node_ignored() {
        let mut m = mac(1);
        let mut r = rng();
        drive_to_tx(&mut m, 2, &mut r);
        m.on_tx_done(&mut r);
        let (actions, _) = m.on_frame_received(rx(Frame::ack(2, 9, 0)), &mut r);
        assert!(actions.is_empty());
        assert_eq!(m.queue_len(), 1); // still awaiting its ack
    }

    #[test]
    fn queue_overflow_rejects() {
        let mut m = Mac::new(1, CsmaConfig::default(), 2);
        let mut r = rng();
        drive_to_tx(&mut m, 2, &mut r); // in flight
        assert!(m.send(FrameKind::Data, 2, vec![], &mut r).0);
        assert!(m.send(FrameKind::Data, 2, vec![], &mut r).0);
        let (ok, _) = m.send(FrameKind::Data, 2, vec![], &mut r);
        assert!(!ok);
        assert_eq!(m.counters().get("mac.queue_drop"), 1);
    }
}
