//! The pending-event-set contract and the binary-heap baseline.

use std::cmp::Ordering;
use std::collections::BinaryHeap;
use std::fmt::Debug;

use crate::{Event, VirtualTime};

/// A pending event set: a priority queue ordered by simulated time.
///
/// Ties are broken deterministically by `(net, insertion sequence)`, so any
/// two implementations drain an identical push sequence in an identical
/// order. Every kernel holds a [`BucketQueue`](crate::BucketQueue); the
/// other implementations are benchmark baselines held to the same order.
///
/// # Examples
///
/// ```
/// use parsim_event::{BinaryHeapQueue, BucketQueue, Event, EventQueue, VirtualTime};
/// use parsim_logic::Bit;
/// use parsim_netlist::GateId;
///
/// fn drain<Q: EventQueue<Bit>>(mut q: Q) -> Vec<u64> {
///     for (t, n) in [(9, 0), (3, 1), (9, 0), (1, 2)] {
///         q.push(Event::new(VirtualTime::new(t), GateId::new(n), Bit::One));
///     }
///     std::iter::from_fn(|| q.pop()).map(|e| e.time.ticks()).collect()
/// }
/// assert_eq!(drain(BinaryHeapQueue::new()), vec![1, 3, 9, 9]);
/// assert_eq!(drain(BucketQueue::new()), vec![1, 3, 9, 9]);
/// ```
pub trait EventQueue<V>: Debug {
    /// Inserts an event.
    fn push(&mut self, event: Event<V>);

    /// Removes and returns the earliest event, if any.
    fn pop(&mut self) -> Option<Event<V>>;

    /// The timestamp of the earliest event, if any.
    fn peek_time(&self) -> Option<VirtualTime>;

    /// Number of pending events.
    fn len(&self) -> usize;

    /// Returns `true` if no events are pending.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Removes all pending events.
    fn clear(&mut self);
}

/// An entry with the deterministic ordering key.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Keyed<V> {
    pub(crate) event: Event<V>,
    pub(crate) seq: u64,
}

impl<V> Keyed<V> {
    pub(crate) fn key(&self) -> (VirtualTime, usize, u64) {
        (self.event.time, self.event.net.index(), self.seq)
    }
}

impl<V> PartialEq for Keyed<V> {
    fn eq(&self, other: &Self) -> bool {
        self.key() == other.key()
    }
}

impl<V> Eq for Keyed<V> {}

impl<V> PartialOrd for Keyed<V> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<V> Ord for Keyed<V> {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reversed: BinaryHeap is a max-heap, we need the min element on top.
        other.key().cmp(&self.key())
    }
}

/// The classic binary-heap pending event set.
///
/// `O(log n)` push and pop. No kernel uses it: it is a baseline of the
/// repository benchmark's `event.*_ns_per_op` rows, beside
/// [`CalendarQueue`](crate::CalendarQueue) and
/// [`PairingHeapQueue`](crate::PairingHeapQueue).
#[derive(Debug)]
pub struct BinaryHeapQueue<V> {
    heap: BinaryHeap<Keyed<V>>,
    next_seq: u64,
}

impl<V> BinaryHeapQueue<V> {
    /// Creates an empty queue.
    pub fn new() -> Self {
        BinaryHeapQueue { heap: BinaryHeap::new(), next_seq: 0 }
    }
}

impl<V> Default for BinaryHeapQueue<V> {
    fn default() -> Self {
        Self::new()
    }
}

impl<V: Copy + Debug> EventQueue<V> for BinaryHeapQueue<V> {
    fn push(&mut self, event: Event<V>) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(Keyed { event, seq });
    }

    fn pop(&mut self) -> Option<Event<V>> {
        self.heap.pop().map(|k| k.event)
    }

    fn peek_time(&self) -> Option<VirtualTime> {
        self.heap.peek().map(|k| k.event.time)
    }

    fn len(&self) -> usize {
        self.heap.len()
    }

    fn clear(&mut self) {
        self.heap.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use parsim_logic::Bit;
    use parsim_netlist::GateId;

    fn ev(t: u64, n: usize) -> Event<Bit> {
        Event::new(VirtualTime::new(t), GateId::new(n), Bit::One)
    }

    #[test]
    fn pops_in_time_order() {
        let mut q = BinaryHeapQueue::new();
        for t in [5, 1, 9, 3, 7] {
            q.push(ev(t, 0));
        }
        let times: Vec<u64> = std::iter::from_fn(|| q.pop()).map(|e| e.time.ticks()).collect();
        assert_eq!(times, vec![1, 3, 5, 7, 9]);
    }

    #[test]
    fn ties_break_by_net_then_insertion() {
        let mut q = BinaryHeapQueue::new();
        q.push(ev(4, 7));
        q.push(ev(4, 2));
        q.push(ev(4, 7));
        let order: Vec<usize> = std::iter::from_fn(|| q.pop()).map(|e| e.net.index()).collect();
        assert_eq!(order, vec![2, 7, 7]);
    }

    #[test]
    fn peek_len_clear() {
        let mut q = BinaryHeapQueue::new();
        assert!(q.is_empty());
        assert_eq!(q.peek_time(), None);
        q.push(ev(2, 0));
        q.push(ev(1, 0));
        assert_eq!(q.len(), 2);
        assert_eq!(q.peek_time(), Some(VirtualTime::new(1)));
        q.clear();
        assert!(q.is_empty());
        assert_eq!(q.pop(), None);
    }
}
