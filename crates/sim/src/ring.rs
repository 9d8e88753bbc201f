//! A bounded buffer of the most recent items.
//!
//! The trace sink, the per-node event logs and the workstation's
//! command history all keep "the last N things" and hand them out as
//! one contiguous slice. [`Ring`] is that buffer.

/// Keeps the most recent `capacity` items, oldest first.
///
/// Eviction is batched: the backing buffer may grow to twice the
/// capacity and is compacted in one `drain` per `capacity` pushes, so a
/// full ring costs amortized O(1) per push instead of shifting the
/// whole buffer on every item, and the retained window is always one
/// slice.
#[derive(Debug, Clone)]
pub struct Ring<T> {
    capacity: usize,
    items: Vec<T>,
    pushed: u64,
}

impl<T> Ring<T> {
    /// An empty ring retaining at most `capacity` items (at least one).
    pub fn new(capacity: usize) -> Self {
        Ring {
            capacity: capacity.max(1),
            items: Vec::new(),
            pushed: 0,
        }
    }

    /// Append `item`, evicting the oldest once `capacity` are held.
    #[inline]
    pub fn push(&mut self, item: T) {
        if self.items.len() >= self.capacity * 2 {
            let excess = self.items.len() - self.capacity;
            self.items.drain(..excess);
        }
        self.items.push(item);
        self.pushed += 1;
    }

    /// The retained items, oldest first. Anything older than the last
    /// `capacity` is already logically evicted, pending compaction.
    pub fn as_slice(&self) -> &[T] {
        let start = self.items.len().saturating_sub(self.capacity);
        &self.items[start..]
    }

    /// Items evicted by the capacity bound since the last
    /// [`clear`](Ring::clear).
    pub fn dropped(&self) -> u64 {
        self.pushed - self.as_slice().len() as u64
    }

    /// Forget every item and the eviction count.
    pub fn clear(&mut self) {
        self.items.clear();
        self.pushed = 0;
    }
}

impl<T> Extend<T> for Ring<T> {
    fn extend<I: IntoIterator<Item = T>>(&mut self, iter: I) {
        for item in iter {
            self.push(item);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn window_and_backing_buffer_stay_bounded() {
        // Push far past 2× capacity so the drain fires repeatedly: the
        // window must match a plain ring and the backing buffer must
        // never exceed twice the capacity.
        let mut r = Ring::new(4);
        for i in 0..100u64 {
            r.push(i);
            assert!(r.items.len() <= 8);
        }
        assert_eq!(r.as_slice(), &[96, 97, 98, 99]);
        assert_eq!(r.dropped(), 96);
        // A zero capacity still keeps the newest item.
        let mut r = Ring::new(0);
        r.extend(["a", "b"]);
        assert_eq!(r.as_slice(), &["b"]);
    }
}
