//! A calendar-queue pending event set.

use std::fmt::Debug;

use crate::queue::Keyed;
use crate::{Event, EventQueue, VirtualTime};

/// A calendar queue (R. Brown, CACM 1988): the pending event set behind many
/// production logic simulators.
///
/// Events are hashed by timestamp into an array of *days* (buckets) that
/// wraps around every *year* (`buckets × width` ticks); dequeue scans forward
/// from the current day. With a well-chosen width, both operations run in
/// amortized `O(1)`, beating the binary heap on the high event rates typical
/// of gate-level simulation.
///
/// The structure resizes itself (doubling/halving the day count and
/// re-estimating the width from the current population's time span) as the
/// population grows and shrinks. Within a day, events are kept sorted by the
/// same deterministic `(time, net, sequence)` key the binary heap uses, so
/// the two implementations drain identically. Days are stored *descending*
/// (minimum key at the back) so a dequeue is a `Vec::pop` — O(1) even when a
/// resize packs thousands of same-timestamp events into one day.
///
/// No kernel uses it: it is a baseline of the repository benchmark's
/// `event.*_ns_per_op` rows (EXPERIMENTS.md E19 has its in-kernel A/B
/// against [`BucketQueue`](crate::BucketQueue)).
///
/// # Examples
///
/// ```
/// use parsim_event::{CalendarQueue, Event, EventQueue, VirtualTime};
/// use parsim_logic::Bit;
/// use parsim_netlist::GateId;
///
/// let mut q = CalendarQueue::new();
/// for t in [40u64, 5, 17, 5, 99] {
///     q.push(Event::new(VirtualTime::new(t), GateId::new(0), Bit::One));
/// }
/// let order: Vec<u64> = std::iter::from_fn(|| q.pop()).map(|e| e.time.ticks()).collect();
/// assert_eq!(order, vec![5, 5, 17, 40, 99]);
/// ```
#[derive(Debug)]
pub struct CalendarQueue<V> {
    /// Each day holds events sorted *descending* by key: the day's earliest
    /// event is at the back, so dequeues pop from the back in O(1) instead
    /// of shifting the whole day with a front removal.
    days: Vec<Vec<Keyed<V>>>,
    /// Ticks per day (≥ 1).
    width: u64,
    size: usize,
    /// Day the dequeue cursor is on.
    cursor: usize,
    /// Absolute tick where the cursor's current day-in-year ends.
    cursor_top: u64,
    next_seq: u64,
}

const INITIAL_DAYS: usize = 4;

impl<V: Copy + Debug> CalendarQueue<V> {
    /// Creates an empty queue.
    pub fn new() -> Self {
        CalendarQueue {
            days: vec![Vec::new(); INITIAL_DAYS],
            width: 1,
            size: 0,
            cursor: 0,
            cursor_top: 1,
            next_seq: 0,
        }
    }

    fn day_of(&self, time: VirtualTime) -> usize {
        ((time.ticks() / self.width) % self.days.len() as u64) as usize
    }

    fn insert(&mut self, keyed: Keyed<V>) {
        let day = self.day_of(keyed.event.time);
        let bucket = &mut self.days[day];
        // Descending order: everything with a larger key stays in front.
        let pos = bucket.partition_point(|k| k.key() > keyed.key());
        bucket.insert(pos, keyed);
    }

    /// Moves the cursor to the year/day containing `time`.
    fn seek(&mut self, time: VirtualTime) {
        let t = time.ticks();
        self.cursor = self.day_of(time);
        self.cursor_top = (t / self.width + 1) * self.width;
    }

    fn resize(&mut self, new_days: usize) {
        // Re-estimate the day width from the live population's span so that
        // events spread over roughly one event per day (Brown's heuristic,
        // simplified: span / size, clamped to ≥ 1).
        let mut min_t = u64::MAX;
        let mut max_t = 0u64;
        for k in self.days.iter().flatten() {
            let t = k.event.time.ticks();
            min_t = min_t.min(t);
            max_t = max_t.max(t);
        }
        let span = max_t.saturating_sub(min_t);
        self.width = (span / self.size.max(1) as u64).max(1);

        let old: Vec<Keyed<V>> = self.days.iter_mut().flat_map(std::mem::take).collect();
        self.days = vec![Vec::new(); new_days];
        for k in old {
            self.insert(k);
        }
        // Restart the cursor at the earliest event.
        if let Some(t) = self.min_time() {
            self.seek(t);
        }
    }

    fn min_time(&self) -> Option<VirtualTime> {
        self.days.iter().filter_map(|d| d.last()).map(|k| k.event.time).min()
    }

    /// The min event across all days, by full key (used when a whole year is
    /// empty and we must jump ahead).
    fn min_key_day(&self) -> Option<usize> {
        let mut best: Option<(usize, (VirtualTime, usize, u64))> = None;
        for (i, day) in self.days.iter().enumerate() {
            if let Some(k) = day.last() {
                let key = k.key();
                if best.is_none_or(|(_, bk)| key < bk) {
                    best = Some((i, key));
                }
            }
        }
        best.map(|(i, _)| i)
    }
}

impl<V: Copy + Debug> Default for CalendarQueue<V> {
    fn default() -> Self {
        Self::new()
    }
}

impl<V: Copy + Debug> EventQueue<V> for CalendarQueue<V> {
    fn push(&mut self, event: Event<V>) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.insert(Keyed { event, seq });
        self.size += 1;
        // An event earlier than the cursor's current day (possible after
        // out-of-order scheduling) pulls the cursor back so it is not
        // skipped. The invariant "cursor day start ≤ minimum pending time"
        // holds at every operation boundary, so an event that lands before
        // the day start is *necessarily* the new global minimum — no scan
        // over the days is needed to confirm it.
        if self.size == 1 || event.time.ticks() < self.cursor_top.saturating_sub(self.width) {
            self.seek(event.time);
        }
        if self.size > 2 * self.days.len() {
            let doubled = self.days.len() * 2;
            self.resize(doubled);
        }
    }

    fn pop(&mut self) -> Option<Event<V>> {
        if self.size == 0 {
            return None;
        }
        let ndays = self.days.len();
        for _ in 0..ndays {
            let day = &mut self.days[self.cursor];
            if let Some(head) = day.last() {
                if head.event.time.ticks() < self.cursor_top {
                    let k = day.pop().expect("day nonempty");
                    self.size -= 1;
                    if self.size >= INITIAL_DAYS && self.size * 2 < self.days.len() {
                        let halved = self.days.len() / 2;
                        self.resize(halved);
                    }
                    return Some(k.event);
                }
            }
            self.cursor = (self.cursor + 1) % ndays;
            self.cursor_top += self.width;
        }
        // Scanned a whole year without a hit: jump directly to the minimum.
        let day = self.min_key_day().expect("size > 0 implies some day is nonempty");
        let k = self.days[day].pop().expect("min day nonempty");
        self.seek(k.event.time);
        self.size -= 1;
        Some(k.event)
    }

    fn peek_time(&self) -> Option<VirtualTime> {
        self.min_time()
    }

    fn len(&self) -> usize {
        self.size
    }

    fn clear(&mut self) {
        for d in &mut self.days {
            d.clear();
        }
        self.size = 0;
        self.cursor = 0;
        self.cursor_top = self.width;
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
    fn pops_in_time_order_with_resizes() {
        let mut q = CalendarQueue::new();
        let times: Vec<u64> = (0..500).map(|i| (i * 7919) % 1000).collect();
        for &t in &times {
            q.push(ev(t, 0));
        }
        assert_eq!(q.len(), 500);
        let mut sorted = times.clone();
        sorted.sort_unstable();
        let drained: Vec<u64> = std::iter::from_fn(|| q.pop()).map(|e| e.time.ticks()).collect();
        assert_eq!(drained, sorted);
    }

    #[test]
    fn interleaved_push_pop() {
        let mut q = CalendarQueue::new();
        q.push(ev(10, 0));
        q.push(ev(20, 0));
        assert_eq!(q.pop().unwrap().time.ticks(), 10);
        // push an event earlier than anything pending but later than the
        // last pop
        q.push(ev(15, 0));
        assert_eq!(q.pop().unwrap().time.ticks(), 15);
        q.push(ev(12, 0));
        assert_eq!(q.pop().unwrap().time.ticks(), 12);
        assert_eq!(q.pop().unwrap().time.ticks(), 20);
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn sparse_times_trigger_year_jump() {
        let mut q = CalendarQueue::new();
        q.push(ev(1, 0));
        q.push(ev(1_000_000, 0));
        q.push(ev(3_000_000_000, 0));
        let drained: Vec<u64> = std::iter::from_fn(|| q.pop()).map(|e| e.time.ticks()).collect();
        assert_eq!(drained, vec![1, 1_000_000, 3_000_000_000]);
    }

    #[test]
    fn matches_binary_heap_on_pseudorandom_workload() {
        use crate::BinaryHeapQueue;
        let mut cal = CalendarQueue::new();
        let mut heap = BinaryHeapQueue::new();
        let mut x: u64 = 0x2545F491;
        let mut next = move || {
            // xorshift
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        for round in 0..2000u64 {
            let t = next() % 10_000;
            let n = (next() % 50) as usize;
            let e = ev(t, n);
            cal.push(e);
            heap.push(e);
            if round % 3 == 0 {
                assert_eq!(cal.pop(), heap.pop(), "divergence at round {round}");
            }
        }
        while let Some(h) = heap.pop() {
            assert_eq!(cal.pop(), Some(h));
        }
        assert_eq!(cal.pop(), None);
    }

    #[test]
    fn dense_single_day_drains_like_heap() {
        // Every event shares one timestamp, so whatever the width ends up as
        // after resizes, the whole population lives in a single day — the
        // workload that made the old front-of-Vec removal quadratic. The
        // drain must still match the binary heap event-for-event (FIFO among
        // equal timestamps, by sequence number).
        use crate::BinaryHeapQueue;
        let mut cal = CalendarQueue::new();
        let mut heap = BinaryHeapQueue::new();
        for i in 0..4000 {
            let e = ev(77, i % 13);
            cal.push(e);
            heap.push(e);
        }
        assert_eq!(cal.len(), 4000);
        for round in 0..4000 {
            assert_eq!(cal.pop(), heap.pop(), "divergence at dequeue {round}");
        }
        assert_eq!(cal.pop(), None);
    }

    #[test]
    fn interleaved_early_late_pushes_match_heap() {
        // Regression for the out-of-order push path: inserts earlier than
        // the cursor's day used to trigger a full O(days) minimum scan, and
        // now rely on the cursor-day invariant instead. Interleave early and
        // late timestamps around an advanced cursor and assert the pop order
        // is identical to the binary heap's.
        use crate::BinaryHeapQueue;
        let mut cal = CalendarQueue::new();
        let mut heap = BinaryHeapQueue::new();
        for i in 0..64u64 {
            let e = ev(1_000 + i * 3, i as usize);
            cal.push(e);
            heap.push(e);
        }
        // Advance the cursor well into the populated region.
        for _ in 0..32 {
            assert_eq!(cal.pop(), heap.pop());
        }
        for round in 0..500u64 {
            let early = ev(round % 7, (round % 29) as usize);
            let late = ev(2_000 + (round * 13) % 512, (round % 31) as usize);
            cal.push(early);
            heap.push(early);
            cal.push(late);
            heap.push(late);
            if round % 2 == 0 {
                assert_eq!(cal.pop(), heap.pop(), "divergence at round {round}");
            }
        }
        while let Some(h) = heap.pop() {
            assert_eq!(cal.pop(), Some(h));
        }
        assert_eq!(cal.pop(), None);
    }

    #[test]
    fn clear_resets() {
        let mut q = CalendarQueue::new();
        for t in 0..100 {
            q.push(ev(t, 0));
        }
        q.clear();
        assert!(q.is_empty());
        assert_eq!(q.peek_time(), None);
        q.push(ev(5, 0));
        assert_eq!(q.pop().unwrap().time.ticks(), 5);
    }
}
