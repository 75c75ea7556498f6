//! A pairing-heap pending event set.

use std::fmt::Debug;

use crate::queue::Keyed;
use crate::{Event, EventQueue, VirtualTime};

/// A node in the arena: element plus intrusive child/sibling links.
#[derive(Debug, Clone)]
struct Node<V> {
    item: Keyed<V>,
    /// First child (arena index), `usize::MAX` = none.
    child: usize,
    /// Next sibling (arena index), `usize::MAX` = none.
    sibling: usize,
}

const NONE: usize = usize::MAX;

/// A pairing heap (Fredman et al.): the priority queue with the best
/// practical constants for the *hold* access pattern of discrete-event
/// simulation, and a fixture of the PDES literature's event-queue studies
/// alongside the binary heap and the calendar queue.
///
/// `O(1)` insert, amortized `O(log n)` delete-min via the two-pass pairing
/// rule. Nodes live in a free-listed arena, so steady-state operation does
/// no allocation. Ordering is the workspace-wide deterministic
/// `(time, net, insertion sequence)` key, so it drains identically to the
/// other queues (differential-tested).
///
/// No kernel uses it: it is a baseline of the repository benchmark's
/// `event.*_ns_per_op` rows (EXPERIMENTS.md E19 has its in-kernel A/B
/// against [`BucketQueue`](crate::BucketQueue)).
///
/// # Examples
///
/// ```
/// use parsim_event::{Event, EventQueue, PairingHeapQueue, VirtualTime};
/// use parsim_logic::Bit;
/// use parsim_netlist::GateId;
///
/// let mut q = PairingHeapQueue::new();
/// for t in [7u64, 3, 11, 3] {
///     q.push(Event::new(VirtualTime::new(t), GateId::new(0), Bit::One));
/// }
/// let order: Vec<u64> = std::iter::from_fn(|| q.pop()).map(|e| e.time.ticks()).collect();
/// assert_eq!(order, vec![3, 3, 7, 11]);
/// ```
#[derive(Debug)]
pub struct PairingHeapQueue<V> {
    arena: Vec<Node<V>>,
    free: Vec<usize>,
    root: usize,
    len: usize,
    next_seq: u64,
    /// Scratch for the second pairing pass.
    scratch: Vec<usize>,
}

impl<V: Copy + Debug> PairingHeapQueue<V> {
    /// Creates an empty queue.
    pub fn new() -> Self {
        PairingHeapQueue {
            arena: Vec::new(),
            free: Vec::new(),
            root: NONE,
            len: 0,
            next_seq: 0,
            scratch: Vec::new(),
        }
    }

    fn alloc(&mut self, item: Keyed<V>) -> usize {
        let node = Node { item, child: NONE, sibling: NONE };
        match self.free.pop() {
            Some(i) => {
                self.arena[i] = node;
                i
            }
            None => {
                self.arena.push(node);
                self.arena.len() - 1
            }
        }
    }

    /// Melds two heaps rooted at `a` and `b`; the smaller key becomes the
    /// parent.
    fn meld(&mut self, a: usize, b: usize) -> usize {
        if a == NONE {
            return b;
        }
        if b == NONE {
            return a;
        }
        let (parent, child) =
            if self.arena[a].item.key() <= self.arena[b].item.key() { (a, b) } else { (b, a) };
        self.arena[child].sibling = self.arena[parent].child;
        self.arena[parent].child = child;
        parent
    }

    /// Two-pass pairing of a child list.
    fn merge_pairs(&mut self, first: usize) -> usize {
        // Pass 1: left to right, meld adjacent pairs.
        self.scratch.clear();
        let mut cur = first;
        while cur != NONE {
            let a = cur;
            let b = self.arena[a].sibling;
            if b == NONE {
                self.arena[a].sibling = NONE;
                self.scratch.push(a);
                break;
            }
            let next = self.arena[b].sibling;
            self.arena[a].sibling = NONE;
            self.arena[b].sibling = NONE;
            let melded = self.meld(a, b);
            self.scratch.push(melded);
            cur = next;
        }
        // Pass 2: right to left.
        let mut root = NONE;
        let mut pairs = std::mem::take(&mut self.scratch);
        while let Some(h) = pairs.pop() {
            root = self.meld(root, h);
        }
        self.scratch = pairs;
        root
    }
}

impl<V: Copy + Debug> Default for PairingHeapQueue<V> {
    fn default() -> Self {
        Self::new()
    }
}

impl<V: Copy + Debug> EventQueue<V> for PairingHeapQueue<V> {
    fn push(&mut self, event: Event<V>) {
        let seq = self.next_seq;
        self.next_seq += 1;
        let node = self.alloc(Keyed { event, seq });
        let root = self.root;
        self.root = self.meld(root, node);
        self.len += 1;
    }

    fn pop(&mut self) -> Option<Event<V>> {
        if self.root == NONE {
            return None;
        }
        let old_root = self.root;
        let event = self.arena[old_root].item.event;
        let first_child = self.arena[old_root].child;
        self.root = self.merge_pairs(first_child);
        self.free.push(old_root);
        self.len -= 1;
        Some(event)
    }

    fn peek_time(&self) -> Option<VirtualTime> {
        if self.root == NONE {
            None
        } else {
            Some(self.arena[self.root].item.event.time)
        }
    }

    fn len(&self) -> usize {
        self.len
    }

    fn clear(&mut self) {
        self.arena.clear();
        self.free.clear();
        self.root = NONE;
        self.len = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::BinaryHeapQueue;
    use parsim_logic::Bit;
    use parsim_netlist::GateId;

    fn ev(t: u64, n: usize) -> Event<Bit> {
        Event::new(VirtualTime::new(t), GateId::new(n), Bit::One)
    }

    #[test]
    fn pops_in_order() {
        let mut q = PairingHeapQueue::new();
        for t in [9u64, 2, 7, 2, 100, 0] {
            q.push(ev(t, 0));
        }
        let order: Vec<u64> = std::iter::from_fn(|| q.pop()).map(|e| e.time.ticks()).collect();
        assert_eq!(order, vec![0, 2, 2, 7, 9, 100]);
    }

    #[test]
    fn matches_binary_heap_on_pseudorandom_workload() {
        let mut pairing = PairingHeapQueue::new();
        let mut heap = BinaryHeapQueue::new();
        let mut x: u64 = 0xDEADBEEF;
        let mut next = move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        for round in 0..3000u64 {
            let e = ev(next() % 10_000, (next() % 64) as usize);
            pairing.push(e);
            heap.push(e);
            if round % 3 == 0 {
                assert_eq!(pairing.pop(), heap.pop(), "divergence at round {round}");
                assert_eq!(pairing.peek_time(), heap.peek_time());
            }
        }
        while let Some(h) = heap.pop() {
            assert_eq!(pairing.pop(), Some(h));
        }
        assert_eq!(pairing.pop(), None);
        assert!(pairing.is_empty());
    }

    #[test]
    fn arena_is_reused() {
        let mut q = PairingHeapQueue::new();
        for t in 0..100 {
            q.push(ev(t, 0));
        }
        for _ in 0..100 {
            q.pop();
        }
        let arena_size = q.arena.len();
        for t in 0..100 {
            q.push(ev(t, 0));
        }
        assert_eq!(q.arena.len(), arena_size, "free list must recycle nodes");
    }

    #[test]
    fn clear_resets() {
        let mut q = PairingHeapQueue::new();
        q.push(ev(5, 0));
        q.clear();
        assert!(q.is_empty());
        assert_eq!(q.peek_time(), None);
        q.push(ev(1, 0));
        assert_eq!(q.pop().unwrap().time.ticks(), 1);
    }
}
