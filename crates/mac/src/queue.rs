//! The bounded transmit FIFO.
//!
//! The routing layer "has a queueing mechanism to hold packets
//! temporarily" (Section V.A) — this queue, combined with CSMA backoff,
//! is what produces the back-to-back packet arrivals visible in Fig. 5.
//! The ping command reports its instantaneous occupancy at both ends
//! ("Queue = 0/0").

use crate::frame::Frame;
use std::collections::VecDeque;

/// A bounded FIFO of frames awaiting channel access.
#[derive(Debug, Clone)]
pub struct TxQueue {
    frames: VecDeque<Frame>,
    capacity: usize,
}

impl TxQueue {
    /// LiteOS-like default depth: 8 outstanding frames.
    pub const DEFAULT_CAPACITY: usize = 8;

    /// Create a queue holding at most `capacity` frames.
    pub fn new(capacity: usize) -> Self {
        TxQueue {
            frames: VecDeque::with_capacity(capacity),
            capacity: capacity.max(1),
        }
    }

    /// Append a frame; returns `false` when full.
    pub fn push(&mut self, frame: Frame) -> bool {
        if self.frames.len() >= self.capacity {
            return false;
        }
        self.frames.push_back(frame);
        true
    }

    /// Remove the frame at the head.
    pub fn pop(&mut self) -> Option<Frame> {
        self.frames.pop_front()
    }

    /// Current occupancy — the number ping prints as `Queue = n/…`.
    pub fn len(&self) -> usize {
        self.frames.len()
    }

    /// True when no frames are waiting.
    pub fn is_empty(&self) -> bool {
        self.frames.is_empty()
    }

    /// Maximum depth.
    pub fn capacity(&self) -> usize {
        self.capacity
    }
}

impl Default for TxQueue {
    fn default() -> Self {
        Self::new(Self::DEFAULT_CAPACITY)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::Frame;

    fn f(seq: u8) -> Frame {
        Frame::data(1, 2, seq, vec![])
    }

    #[test]
    fn fifo_order() {
        let mut q = TxQueue::default();
        for s in 0..5 {
            assert!(q.push(f(s)));
        }
        for s in 0..5 {
            assert_eq!(q.pop().unwrap().seq, s);
        }
        assert!(q.pop().is_none());
    }

    #[test]
    fn capacity_enforced() {
        let mut q = TxQueue::new(2);
        assert!(q.push(f(0)));
        assert!(q.push(f(1)));
        assert!(!q.push(f(2)));
        assert_eq!(q.len(), 2);
    }

    #[test]
    fn zero_capacity_clamped_to_one() {
        let mut q = TxQueue::new(0);
        assert_eq!(q.capacity(), 1);
        assert!(q.push(f(0)));
        assert!(!q.push(f(1)));
    }
}
