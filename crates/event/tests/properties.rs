//! Property tests of the pending-event-set order contract: the bucket queue
//! every kernel uses against a sort-by-`(time, net, insertion)` reference,
//! and the benchmark baselines against each other.

use parsim_event::{BinaryHeapQueue, BucketQueue, CalendarQueue, Event, EventQueue, VirtualTime};
use parsim_logic::{Logic4, LogicValue};
use parsim_netlist::GateId;
use proptest::prelude::*;

/// A workload step: push an event, or pop one.
#[derive(Debug, Clone)]
enum Op {
    Push { time: u64, net: usize, value: Logic4 },
    Pop,
}

fn any_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        3 => (0u64..100_000, 0usize..64, prop::sample::select(Logic4::all().to_vec()))
            .prop_map(|(time, net, value)| Op::Push { time, net, value }),
        2 => Just(Op::Pop),
    ]
}

/// A bucket-queue workload step. Times are few and nets fewer, so equal
/// `(time, net)` pairs are common; `Behind` pushes relative to the last
/// popped time, at it (`back == 0`) or below it. A `Burst` fills one
/// bucket past the length at which sorts stop using insertion sort, so an
/// unstable sort would reorder equal nets.
#[derive(Debug, Clone)]
enum BucketOp {
    Push { time: u64, net: usize, value: Logic4 },
    Burst { time: u64, events: Vec<(usize, Logic4)> },
    Behind { back: u64, net: usize, value: Logic4 },
    Pop,
    Clear,
}

fn any_bucket_op() -> impl Strategy<Value = BucketOp> {
    let value = || prop::sample::select(Logic4::all().to_vec());
    prop_oneof![
        4 => (0u64..40, 0usize..6, value())
            .prop_map(|(time, net, value)| BucketOp::Push { time, net, value }),
        3 => (0u64..3, 0usize..6, value())
            .prop_map(|(back, net, value)| BucketOp::Behind { back, net, value }),
        1 => (0u64..40, prop::collection::vec((0usize..6, value()), 24..96))
            .prop_map(|(time, events)| BucketOp::Burst { time, events }),
        5 => Just(BucketOp::Pop),
        1 => Just(BucketOp::Clear),
    ]
}

/// The contract, spelled out: pop the pending event with the least
/// `(time, net, insertion sequence)`.
#[derive(Debug, Default)]
struct Reference {
    pending: Vec<(VirtualTime, usize, u64, Event<Logic4>)>,
    next_seq: u64,
}

impl Reference {
    fn push(&mut self, e: Event<Logic4>) {
        self.pending.push((e.time, e.net.index(), self.next_seq, e));
        self.next_seq += 1;
    }

    fn pop(&mut self) -> Option<Event<Logic4>> {
        let least = (0..self.pending.len()).min_by_key(|&i| {
            let (t, n, seq, _) = self.pending[i];
            (t, n, seq)
        })?;
        Some(self.pending.swap_remove(least).3)
    }

    fn peek_time(&self) -> Option<VirtualTime> {
        self.pending.iter().map(|p| p.0).min()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// The bucket queue pops exactly the reference's order on any
    /// interleaving of pushes (ahead of, at and below the time being
    /// drained), pops and clears, and agrees on `peek_time` and `len`
    /// after every operation.
    #[test]
    fn bucket_queue_matches_reference_order(
        ops in prop::collection::vec(any_bucket_op(), 1..400),
    ) {
        let mut q: BucketQueue<Logic4> = BucketQueue::new();
        let mut reference = Reference::default();
        let mut last_popped = 0u64;
        for op in ops {
            let pushes = match op {
                BucketOp::Push { time, net, value } => vec![(time, net, value)],
                BucketOp::Burst { time, events } => {
                    events.into_iter().map(|(net, value)| (time, net, value)).collect()
                }
                BucketOp::Behind { back, net, value } => {
                    vec![(last_popped.saturating_sub(back), net, value)]
                }
                BucketOp::Pop => {
                    let popped = q.pop();
                    prop_assert_eq!(popped, reference.pop());
                    if let Some(e) = popped {
                        last_popped = e.time.ticks();
                    }
                    Vec::new()
                }
                BucketOp::Clear => {
                    q.clear();
                    reference.pending.clear();
                    Vec::new()
                }
            };
            for (time, net, value) in pushes {
                let e = Event::new(VirtualTime::new(time), GateId::new(net), value);
                q.push(e);
                reference.push(e);
            }
            prop_assert_eq!(q.len(), reference.pending.len());
            prop_assert_eq!(q.is_empty(), reference.pending.is_empty());
            prop_assert_eq!(q.peek_time(), reference.peek_time());
        }
        loop {
            let popped = q.pop();
            prop_assert_eq!(popped, reference.pop());
            prop_assert_eq!(q.len(), reference.pending.len());
            if popped.is_none() {
                break;
            }
        }
    }

    /// Calendar queue and binary heap produce byte-identical pop sequences
    /// for any interleaving of pushes and pops.
    #[test]
    fn calendar_matches_heap(ops in prop::collection::vec(any_op(), 1..400)) {
        let mut cal: CalendarQueue<Logic4> = CalendarQueue::new();
        let mut heap: BinaryHeapQueue<Logic4> = BinaryHeapQueue::new();
        for op in ops {
            match op {
                Op::Push { time, net, value } => {
                    let e = Event::new(VirtualTime::new(time), GateId::new(net), value);
                    cal.push(e);
                    heap.push(e);
                }
                Op::Pop => {
                    prop_assert_eq!(cal.pop(), heap.pop());
                }
            }
            prop_assert_eq!(cal.len(), heap.len());
            prop_assert_eq!(cal.peek_time(), heap.peek_time());
        }
        // Drain the remainder.
        loop {
            let (c, h) = (cal.pop(), heap.pop());
            prop_assert_eq!(c, h);
            if h.is_none() {
                break;
            }
        }
    }

    /// Dense single-day drain equivalence: all events hash to one calendar
    /// day (few distinct timestamps, large population), the workload that
    /// degraded the old front-of-Vec dequeue to O(n²). The drain must still
    /// match the binary heap exactly, including FIFO order among ties.
    #[test]
    fn dense_day_drain_matches_heap(
        base in 0u64..10_000,
        nets in prop::collection::vec(0usize..64, 64..512),
    ) {
        let mut cal: CalendarQueue<Logic4> = CalendarQueue::new();
        let mut heap: BinaryHeapQueue<Logic4> = BinaryHeapQueue::new();
        for (i, &net) in nets.iter().enumerate() {
            // At most two adjacent timestamps, so resizes estimate a tiny
            // span and the whole population stays in one or two days.
            let t = base + (i % 2) as u64;
            let e = Event::new(VirtualTime::new(t), GateId::new(net), Logic4::One);
            cal.push(e);
            heap.push(e);
        }
        loop {
            let (c, h) = (cal.pop(), heap.pop());
            prop_assert_eq!(c, h);
            if h.is_none() {
                break;
            }
        }
    }

    /// Pop sequences are non-decreasing in time as long as no push goes
    /// backwards past the last pop (the monotone usage pattern of the
    /// sequential kernel).
    #[test]
    fn monotone_workload_pops_sorted(times in prop::collection::vec(0u64..1_000_000, 1..500)) {
        let mut q: CalendarQueue<Logic4> = CalendarQueue::new();
        for &t in &times {
            q.push(Event::new(VirtualTime::new(t), GateId::new(0), Logic4::One));
        }
        let mut last = VirtualTime::ZERO;
        while let Some(e) = q.pop() {
            prop_assert!(e.time >= last);
            last = e.time;
        }
    }
}
