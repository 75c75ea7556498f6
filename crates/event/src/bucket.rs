//! The time-bucketed pending-event set every event-driven kernel uses.

use std::collections::BTreeMap;
use std::fmt::Debug;
use std::mem;

use crate::{Event, EventQueue, VirtualTime};

/// A pending event set of per-timestamp buckets.
///
/// Pending events live in one `Vec` per timestamp, appended in insertion
/// order. When a bucket becomes the earliest, it is stably sorted by net
/// once and then drained by a cursor, so the pop order is exactly the
/// [`EventQueue`] contract — `(time, net, insertion sequence)` — with no
/// per-event sift. A push at the timestamp being drained is inserted after
/// the undrained events of equal net; a push below it parks the undrained
/// rest back into its bucket. Drained `Vec`s are recycled, so a kernel in
/// steady state allocates nothing here.
///
/// Unit-delay circuits keep only a handful of timestamps pending beyond
/// the preloaded stimulus, so each push costs one index lookup and one
/// append, and each pop one cursor step.
///
/// # Examples
///
/// ```
/// use parsim_event::{BucketQueue, Event, EventQueue, VirtualTime};
/// use parsim_logic::Bit;
/// use parsim_netlist::GateId;
///
/// let mut q = BucketQueue::new();
/// for (t, n) in [(9, 4), (3, 1), (9, 0), (3, 1)] {
///     q.push(Event::new(VirtualTime::new(t), GateId::new(n), Bit::One));
/// }
/// let order: Vec<(u64, usize)> =
///     std::iter::from_fn(|| q.pop()).map(|e| (e.time.ticks(), e.net.index())).collect();
/// assert_eq!(order, vec![(3, 1), (3, 1), (9, 0), (9, 4)]);
/// ```
#[derive(Debug)]
pub struct BucketQueue<V> {
    /// Every pending timestamp except the one being drained. Within a
    /// bucket, events of equal net are in insertion order.
    buckets: BTreeMap<VirtualTime, Vec<Event<V>>>,
    /// The bucket being drained, sorted by net; `draining[head..]` is
    /// still pending, at time `now`.
    draining: Vec<Event<V>>,
    head: usize,
    now: VirtualTime,
    len: usize,
    /// Empty `Vec`s kept for reuse as buckets.
    spare: Vec<Vec<Event<V>>>,
}

impl<V> BucketQueue<V> {
    /// Creates an empty queue.
    pub fn new() -> Self {
        BucketQueue {
            buckets: BTreeMap::new(),
            draining: Vec::new(),
            head: 0,
            now: VirtualTime::ZERO,
            len: 0,
            spare: Vec::new(),
        }
    }

    fn is_draining(&self) -> bool {
        self.head < self.draining.len()
    }

    fn recycle(&mut self, mut bucket: Vec<Event<V>>) {
        bucket.clear();
        self.spare.push(bucket);
    }

    /// Returns the undrained rest of the current bucket to the index, so a
    /// push below `now` can become the earliest timestamp.
    fn park(&mut self) {
        self.draining.drain(..self.head);
        self.head = 0;
        let rest = mem::replace(&mut self.draining, self.spare.pop().unwrap_or_default());
        self.buckets.insert(self.now, rest);
    }

    /// Makes the earliest indexed bucket the one being drained. Returns
    /// `false` when nothing is pending.
    fn advance(&mut self) -> bool {
        let Some((time, mut bucket)) = self.buckets.pop_first() else { return false };
        // Stable: events of equal net keep their insertion order.
        bucket.sort_by_key(|e| e.net);
        let drained = mem::replace(&mut self.draining, bucket);
        self.recycle(drained);
        self.head = 0;
        self.now = time;
        true
    }
}

impl<V> Default for BucketQueue<V> {
    fn default() -> Self {
        Self::new()
    }
}

impl<V: Copy + Debug> EventQueue<V> for BucketQueue<V> {
    fn push(&mut self, event: Event<V>) {
        self.len += 1;
        if self.is_draining() {
            if event.time == self.now {
                let rest = &self.draining[self.head..];
                let at = self.head + rest.partition_point(|e| e.net <= event.net);
                self.draining.insert(at, event);
                return;
            }
            if event.time < self.now {
                self.park();
            }
        }
        match self.buckets.get_mut(&event.time) {
            Some(bucket) => bucket.push(event),
            None => {
                let mut bucket = self.spare.pop().unwrap_or_default();
                bucket.push(event);
                self.buckets.insert(event.time, bucket);
            }
        }
    }

    fn pop(&mut self) -> Option<Event<V>> {
        if !self.is_draining() && !self.advance() {
            return None;
        }
        let event = self.draining[self.head];
        self.head += 1;
        self.len -= 1;
        Some(event)
    }

    fn peek_time(&self) -> Option<VirtualTime> {
        if self.is_draining() {
            Some(self.now)
        } else {
            self.buckets.first_key_value().map(|(&time, _)| time)
        }
    }

    fn len(&self) -> usize {
        self.len
    }

    fn clear(&mut self) {
        for (_, bucket) in mem::take(&mut self.buckets) {
            self.recycle(bucket);
        }
        self.draining.clear();
        self.head = 0;
        self.len = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use parsim_logic::Bit;
    use parsim_netlist::GateId;

    fn ev(t: u64, n: usize, v: Bit) -> Event<Bit> {
        Event::new(VirtualTime::new(t), GateId::new(n), v)
    }

    fn drain(q: &mut BucketQueue<Bit>) -> Vec<(u64, usize, Bit)> {
        std::iter::from_fn(|| q.pop()).map(|e| (e.time.ticks(), e.net.index(), e.value)).collect()
    }

    #[test]
    fn push_at_draining_time_lands_after_equal_nets() {
        let mut q = BucketQueue::new();
        for n in [3, 1, 5] {
            q.push(ev(10, n, Bit::Zero));
        }
        assert_eq!(q.pop().map(|e| e.net.index()), Some(1));
        q.push(ev(10, 3, Bit::One));
        q.push(ev(10, 0, Bit::One));
        assert_eq!(q.len(), 4);
        assert_eq!(
            drain(&mut q),
            vec![(10, 0, Bit::One), (10, 3, Bit::Zero), (10, 3, Bit::One), (10, 5, Bit::Zero)]
        );
    }

    #[test]
    fn push_below_draining_time_parks_the_rest() {
        let mut q = BucketQueue::new();
        for n in [2, 1] {
            q.push(ev(10, n, Bit::Zero));
        }
        assert_eq!(q.pop().map(|e| e.net.index()), Some(1));
        q.push(ev(6, 4, Bit::One));
        q.push(ev(10, 2, Bit::One));
        assert_eq!(q.peek_time(), Some(VirtualTime::new(6)));
        assert_eq!(drain(&mut q), vec![(6, 4, Bit::One), (10, 2, Bit::Zero), (10, 2, Bit::One)]);
    }
}
