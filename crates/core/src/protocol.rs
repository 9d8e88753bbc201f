//! The reliable one-hop command protocol (Section IV.B).
//!
//! "For commands translated into a sequence of packets, the protocol
//! operates in batches, with one acknowledgement packet for each batch.
//! The number of packets in each batch is dynamically adjusted based on
//! link quality: a smaller batch size is preferred when packets are more
//! likely to get lost. The lost packets are detected … by detecting
//! missing sequence numbers."
//!
//! [`BatchSender`] and [`BatchReceiver`] are pure state machines (no
//! clocks, no sockets) so the adaptive behaviour is testable in
//! isolation; the runtime controller and the command interpreter drive
//! them over the radio.

use crate::wire::BatchMsg;

/// Maximum chunks per batch (the additive-increase ceiling).
pub const MAX_BATCH: usize = 4;
/// Give up after this many consecutive ack timeouts. Generous because
/// the transfer runs over a single hop the operator deliberately chose;
/// the abort exists to bound pathological cases (node died mid-reply).
pub const MAX_TIMEOUTS: u32 = 12;

/// What the sender asks its driver to do.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SendStep {
    /// Transmit this frame.
    Transmit(BatchMsg),
    /// Arm the per-batch ack timer.
    ArmTimer,
    /// Every chunk acknowledged.
    Done,
    /// Too many timeouts; give up.
    Abort,
}

/// Sender side of the batched transfer.
///
/// ```
/// use liteview::protocol::{BatchSender, BatchReceiver, SendStep};
/// use liteview::wire::BatchMsg;
///
/// let mut tx = BatchSender::new(1, vec![vec![1, 2], vec![3, 4]]);
/// let mut rx = BatchReceiver::new(1);
/// let mut steps = tx.start();
/// while !tx.is_finished() {
///     let mut ack = None;
///     for s in &steps {
///         if let SendStep::Transmit(BatchMsg::Data { req_id, seq, total, ack_after, payload }) = s {
///             if let Some(a) = rx.on_data(*req_id, *seq, *total, *ack_after, payload.clone()) {
///                 ack = Some(a);
///             }
///         }
///     }
///     let BatchMsg::Ack { missing, .. } = ack.expect("lossless link acks each batch") else { unreachable!() };
///     steps = tx.on_ack(&missing);
/// }
/// assert_eq!(rx.assemble().unwrap(), vec![vec![1, 2], vec![3, 4]]);
/// ```
#[derive(Debug)]
pub struct BatchSender {
    req_id: u8,
    chunks: Vec<Vec<u8>>,
    acked: Vec<bool>,
    batch_size: usize,
    outstanding: Vec<u8>,
    timeouts: u32,
    finished: bool,
}

impl BatchSender {
    /// Create a transfer of `chunks` under request id `req_id`.
    pub fn new(req_id: u8, chunks: Vec<Vec<u8>>) -> Self {
        let n = chunks.len();
        BatchSender {
            req_id,
            chunks,
            acked: vec![false; n],
            batch_size: 2, // start conservatively, probe upward
            outstanding: Vec::new(),
            timeouts: 0,
            finished: false,
        }
    }

    /// Current adaptive batch size (exposed for the ablation bench).
    pub fn batch_size(&self) -> usize {
        self.batch_size
    }

    /// Pin the batch size (the fixed-batching ablation arm).
    pub fn set_fixed_batch(&mut self, size: usize) {
        self.batch_size = size.clamp(1, MAX_BATCH);
    }

    fn next_unacked(&self) -> Vec<u8> {
        self.chunks
            .iter()
            .enumerate()
            .filter(|&(i, _)| !self.acked[i])
            .map(|(i, _)| i as u8)
            .take(self.batch_size)
            .collect()
    }

    fn emit_batch(&mut self) -> Vec<SendStep> {
        let seqs = self.next_unacked();
        if seqs.is_empty() {
            self.finished = true;
            return vec![SendStep::Done];
        }
        self.outstanding = seqs.clone();
        let total = self.chunks.len() as u8;
        // `seqs` is non-empty (checked above); fall back to 0 rather
        // than carrying a panic path into deployed senders.
        let last = *seqs.last().unwrap_or(&0);
        let mut steps: Vec<SendStep> = seqs
            .iter()
            .map(|&s| {
                SendStep::Transmit(BatchMsg::Data {
                    req_id: self.req_id,
                    seq: s,
                    total,
                    ack_after: s == last,
                    payload: self.chunks[s as usize].clone(),
                })
            })
            .collect();
        steps.push(SendStep::ArmTimer);
        steps
    }

    /// Begin the transfer.
    pub fn start(&mut self) -> Vec<SendStep> {
        self.emit_batch()
    }

    /// An [`BatchMsg::Ack`] arrived listing still-missing chunks.
    pub fn on_ack(&mut self, missing: &[u8]) -> Vec<SendStep> {
        if self.finished {
            return Vec::new();
        }
        self.timeouts = 0;
        for &s in &self.outstanding {
            if !missing.contains(&s) {
                if let Some(a) = self.acked.get_mut(s as usize) {
                    *a = true;
                }
            }
        }
        // AIMD on batch size: clean batch → grow; losses → shrink hard.
        if missing.is_empty() {
            self.batch_size = (self.batch_size + 1).min(MAX_BATCH);
        } else {
            self.batch_size = (self.batch_size / 2).max(1);
        }
        self.emit_batch()
    }

    /// The per-batch ack timer fired.
    pub fn on_timeout(&mut self) -> Vec<SendStep> {
        if self.finished {
            return Vec::new();
        }
        self.timeouts += 1;
        if self.timeouts >= MAX_TIMEOUTS {
            self.finished = true;
            return vec![SendStep::Abort];
        }
        // Whole batch (or its ack) lost: smallest batches from here.
        self.batch_size = 1;
        self.emit_batch()
    }

    /// Whether the transfer has terminated (done or aborted).
    pub fn is_finished(&self) -> bool {
        self.finished
    }
}

/// Receiver side of the batched transfer.
#[derive(Debug)]
pub struct BatchReceiver {
    req_id: u8,
    total: Option<usize>,
    chunks: Vec<Option<Vec<u8>>>,
    max_seen: Option<u8>,
}

impl BatchReceiver {
    /// Create a receiver for request id `req_id`.
    pub fn new(req_id: u8) -> Self {
        BatchReceiver {
            req_id,
            total: None,
            chunks: Vec::new(),
            max_seen: None,
        }
    }

    /// Handle one incoming `Data` frame. Returns an ack to transmit when
    /// the frame closes a batch.
    pub fn on_data(
        &mut self,
        req_id: u8,
        seq: u8,
        total: u8,
        ack_after: bool,
        payload: Vec<u8>,
    ) -> Option<BatchMsg> {
        if req_id != self.req_id {
            return None;
        }
        let total = total as usize;
        if self.total.is_none() {
            self.total = Some(total);
            self.chunks = vec![None; total];
        }
        if let Some(slot) = self.chunks.get_mut(seq as usize) {
            *slot = Some(payload);
        }
        self.max_seen = Some(self.max_seen.map_or(seq, |m| m.max(seq)));
        if !ack_after {
            return None;
        }
        Some(BatchMsg::Ack {
            req_id: self.req_id,
            missing: self.missing(),
        })
    }

    /// Chunk indices at or below the highest seen that are still absent
    /// ("detecting missing sequence numbers").
    pub fn missing(&self) -> Vec<u8> {
        let Some(max) = self.max_seen else {
            return Vec::new();
        };
        (0..=max)
            .filter(|&s| self.chunks.get(s as usize).map_or(true, |c| c.is_none()))
            .collect()
    }

    /// All chunks present?
    pub fn is_complete(&self) -> bool {
        self.total
            .is_some_and(|t| self.chunks.iter().take(t).all(Option::is_some))
    }

    /// Concatenated payload once complete.
    pub fn assemble(&self) -> Option<Vec<Vec<u8>>> {
        if !self.is_complete() {
            return None;
        }
        Some(self.chunks.iter().flatten().cloned().collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn chunks(n: usize) -> Vec<Vec<u8>> {
        (0..n).map(|i| vec![i as u8; 3]).collect()
    }

    fn transmitted(steps: &[SendStep]) -> Vec<u8> {
        steps
            .iter()
            .filter_map(|s| match s {
                SendStep::Transmit(BatchMsg::Data { seq, .. }) => Some(*seq),
                _ => None,
            })
            .collect()
    }

    /// Drive a sender and a (lossless) receiver to completion.
    #[test]
    fn lossless_transfer_completes_and_grows_batches() {
        let mut tx = BatchSender::new(7, chunks(10));
        let mut rx = BatchReceiver::new(7);
        let mut steps = tx.start();
        let mut sizes = vec![tx.batch_size()];
        let mut guard = 0;
        while !tx.is_finished() {
            guard += 1;
            assert!(guard < 50, "transfer did not converge");
            let mut ack = None;
            for s in &steps {
                if let SendStep::Transmit(BatchMsg::Data {
                    req_id,
                    seq,
                    total,
                    ack_after,
                    payload,
                }) = s
                {
                    if let Some(a) = rx.on_data(*req_id, *seq, *total, *ack_after, payload.clone())
                    {
                        ack = Some(a);
                    }
                }
            }
            let BatchMsg::Ack { missing, .. } = ack.expect("batch edge acked") else {
                panic!("not an ack")
            };
            steps = tx.on_ack(&missing);
            sizes.push(tx.batch_size());
        }
        assert!(rx.is_complete());
        assert_eq!(rx.assemble().unwrap(), chunks(10));
        // Batch size grew under clean delivery.
        assert!(*sizes.last().unwrap() > sizes[0], "sizes = {sizes:?}");
    }

    #[test]
    fn missing_chunks_are_retransmitted() {
        let mut tx = BatchSender::new(1, chunks(4));
        let steps = tx.start();
        assert_eq!(transmitted(&steps), vec![0, 1]);
        // Receiver reports chunk 0 missing.
        let steps = tx.on_ack(&[0]);
        // Batch shrank to 1 and chunk 0 leads the retransmission.
        assert_eq!(tx.batch_size(), 1);
        assert_eq!(transmitted(&steps), vec![0]);
    }

    #[test]
    fn timeout_shrinks_to_single_chunk_batches() {
        let mut tx = BatchSender::new(1, chunks(6));
        tx.start();
        let steps = tx.on_timeout();
        assert_eq!(tx.batch_size(), 1);
        assert_eq!(transmitted(&steps), vec![0]);
    }

    #[test]
    fn repeated_timeouts_abort() {
        let mut tx = BatchSender::new(1, chunks(2));
        tx.start();
        let mut last = Vec::new();
        for _ in 0..MAX_TIMEOUTS {
            last = tx.on_timeout();
        }
        assert_eq!(last, vec![SendStep::Abort]);
        assert!(tx.is_finished());
        assert!(tx.on_timeout().is_empty());
        assert!(tx.on_ack(&[]).is_empty());
    }

    #[test]
    fn abort_is_emitted_exactly_once() {
        // Drive the timer well past the budget: the Abort step must
        // appear exactly once, the machine is finished from that point
        // on, and every later stimulus is ignored.
        let mut tx = BatchSender::new(1, chunks(3));
        tx.start();
        let mut aborts = 0;
        for i in 1..=MAX_TIMEOUTS * 3 {
            let steps = tx.on_timeout();
            aborts += steps.iter().filter(|s| **s == SendStep::Abort).count();
            if i >= MAX_TIMEOUTS {
                assert!(tx.is_finished(), "finished from timeout {i}");
                if i > MAX_TIMEOUTS {
                    assert!(steps.is_empty(), "post-abort timeout {i} emitted {steps:?}");
                }
            } else {
                assert!(!tx.is_finished(), "finished early at timeout {i}");
            }
        }
        assert_eq!(aborts, 1);
        // A late ack cannot resurrect the transfer either.
        assert!(tx.on_ack(&[]).is_empty());
        assert!(tx.is_finished());
    }

    #[test]
    fn ack_resets_timeout_budget() {
        let mut tx = BatchSender::new(1, chunks(8));
        tx.start();
        for _ in 0..MAX_TIMEOUTS - 1 {
            tx.on_timeout();
        }
        tx.on_ack(&[]); // progress clears the strike counter
        for _ in 0..MAX_TIMEOUTS - 1 {
            let steps = tx.on_timeout();
            assert_ne!(steps, vec![SendStep::Abort]);
        }
    }

    #[test]
    fn receiver_detects_gaps_by_sequence() {
        let mut rx = BatchReceiver::new(3);
        rx.on_data(3, 0, 5, false, vec![0]);
        // Chunk 1 lost; chunk 2 closes the batch.
        let ack = rx.on_data(3, 2, 5, true, vec![2]).unwrap();
        assert_eq!(
            ack,
            BatchMsg::Ack {
                req_id: 3,
                missing: vec![1]
            }
        );
        assert!(!rx.is_complete());
    }

    #[test]
    fn receiver_ignores_foreign_req_ids() {
        let mut rx = BatchReceiver::new(3);
        assert!(rx.on_data(4, 0, 1, true, vec![]).is_none());
        assert!(!rx.is_complete());
    }

    #[test]
    fn duplicate_chunks_harmless() {
        let mut rx = BatchReceiver::new(1);
        rx.on_data(1, 0, 2, false, vec![7]);
        rx.on_data(1, 0, 2, false, vec![7]);
        rx.on_data(1, 1, 2, true, vec![8]);
        assert!(rx.is_complete());
        assert_eq!(rx.assemble().unwrap(), vec![vec![7], vec![8]]);
    }

    #[test]
    fn lossy_transfer_still_completes() {
        // Drop every third Data frame deterministically.
        let payload = chunks(12);
        let mut tx = BatchSender::new(9, payload.clone());
        let mut rx = BatchReceiver::new(9);
        let mut steps = tx.start();
        let mut drop_counter = 0u32;
        let mut guard = 0;
        let mut min_batch = tx.batch_size();
        while !tx.is_finished() {
            guard += 1;
            assert!(guard < 200, "did not converge");
            let mut ack = None;
            let mut batch_edge_seen = false;
            for s in &steps {
                if let SendStep::Transmit(BatchMsg::Data {
                    req_id,
                    seq,
                    total,
                    ack_after,
                    payload,
                }) = s
                {
                    drop_counter += 1;
                    if *ack_after {
                        batch_edge_seen = true;
                    }
                    if drop_counter.is_multiple_of(3) {
                        continue; // lost on the air
                    }
                    if let Some(a) = rx.on_data(*req_id, *seq, *total, *ack_after, payload.clone())
                    {
                        ack = Some(a);
                    }
                }
            }
            steps = match (ack, batch_edge_seen) {
                (Some(BatchMsg::Ack { missing, .. }), _) => tx.on_ack(&missing),
                // Batch edge lost → the sender's timer fires.
                _ => tx.on_timeout(),
            };
            min_batch = min_batch.min(tx.batch_size());
        }
        assert!(rx.is_complete());
        assert_eq!(rx.assemble().unwrap(), payload);
        // Loss drove the batch size down at some point during the run.
        assert_eq!(min_batch, 1, "loss never shrank the batch");
    }
}
