//! The per-LP state machine shared by the modeled and threaded drivers.

use std::collections::BTreeMap;

use parsim_core::{LpTopology, Waveform};
use parsim_event::{BinaryHeapQueue, Event, EventQueue, VirtualTime};
use parsim_logic::LogicValue;
use parsim_netlist::{Circuit, Delay, GateId};
use parsim_runtime::{CompiledBlock, LpCore};

/// A protocol action emitted by an LP activation, for the driver to route.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Outgoing<V> {
    /// Deliver an event message to another LP.
    Event {
        /// Destination LP.
        dst: usize,
        /// The event.
        event: Event<V>,
    },
    /// Deliver a null message (channel-clock promise) to another LP.
    Null {
        /// Destination LP.
        dst: usize,
        /// Promise: no future event message on this channel earlier than
        /// this.
        time: VirtualTime,
    },
}

/// Counters an activation reports back to the driver for cost charging.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct ActivationWork {
    pub events_popped: u64,
    pub evaluations: u64,
    pub events_scheduled: u64,
}

/// The state of one conservative logical process: the kernel-independent
/// [`LpCore`] (net values, gate state, waveforms, dirty marking) plus the
/// Chandy–Misra–Bryant protocol layer — event queue, channel clocks and
/// null-message bookkeeping.
#[derive(Debug)]
pub(crate) struct LpState<V> {
    pub(crate) index: usize,
    core: LpCore<V>,
    queue: BinaryHeapQueue<V>,
    /// Channel clocks: `in_clock[i]` is the promise from LP
    /// `in_channels[i]` of this LP's spec (sorted, de-duplicated).
    in_clock: Vec<VirtualTime>,
    /// Last null-message value sent per outgoing channel (to avoid
    /// resends), aligned with the spec's `out_channels`.
    last_null: Vec<VirtualTime>,
    /// Timestamp frontier: all timestamps `< frontier` are fully processed.
    frontier: VirtualTime,
    did_initial: bool,
}

impl<V: LogicValue> LpState<V> {
    pub(crate) fn new(
        circuit: &Circuit,
        topo: &LpTopology,
        index: usize,
        observed: impl Iterator<Item = GateId>,
    ) -> Self {
        let spec = &topo.lps()[index];
        LpState {
            index,
            core: LpCore::new(circuit, observed),
            queue: BinaryHeapQueue::new(),
            in_clock: vec![VirtualTime::ZERO; spec.in_channels.len()],
            last_null: vec![VirtualTime::ZERO; spec.out_channels.len()],
            frontier: VirtualTime::ZERO,
            did_initial: false,
        }
    }

    /// Preloads an event known in advance (stimulus, constants).
    pub(crate) fn preload(&mut self, event: Event<V>) {
        self.queue.push(event);
    }

    /// Handles an incoming event message.
    pub(crate) fn receive_event(&mut self, event: Event<V>) {
        debug_assert!(
            event.time >= self.frontier,
            "conservative violation: straggler at {} with frontier {}",
            event.time,
            self.frontier
        );
        self.queue.push(event);
    }

    /// Handles an incoming null message from `src`.
    pub(crate) fn receive_null(&mut self, topo: &LpTopology, src: usize, time: VirtualTime) {
        let channel = topo.lps()[self.index]
            .in_channels
            .binary_search(&src)
            .expect("null from a known channel");
        let clock = &mut self.in_clock[channel];
        *clock = (*clock).max(time);
    }

    /// Recovery: advances every channel clock to at least `time`.
    pub(crate) fn recover_to(&mut self, time: VirtualTime) {
        for clock in &mut self.in_clock {
            *clock = (*clock).max(time);
        }
    }

    /// The input-waiting-rule bound: events strictly earlier than this are
    /// safe to process.
    pub(crate) fn safe_time(&self) -> VirtualTime {
        self.in_clock.iter().copied().min().unwrap_or(VirtualTime::INFINITY)
    }

    /// The commit frontier: every timestamp strictly below it is fully
    /// processed here, and `receive_event` rejects stragglers below it, so
    /// the minimum over all LPs bounds what a truncated run may claim.
    pub(crate) fn frontier(&self) -> VirtualTime {
        self.frontier
    }

    /// Timestamp of the earliest unprocessed local event.
    pub(crate) fn head_time(&self) -> Option<VirtualTime> {
        if self.did_initial {
            self.queue.peek_time()
        } else {
            // The t = 0 initial evaluation is always pending work.
            Some(VirtualTime::ZERO)
        }
    }

    /// Runs the LP: processes every safe timestamp (`< safe_time`, `≤
    /// until`), evaluating through `block` (this LP's bytecode) and
    /// emitting outgoing messages through `out`. Returns the work performed
    /// (for cost accounting).
    pub(crate) fn activate(
        &mut self,
        circuit: &Circuit,
        topo: &LpTopology,
        until: VirtualTime,
        send_nulls: bool,
        block: &CompiledBlock,
        out: &mut impl FnMut(Outgoing<V>),
    ) -> ActivationWork {
        let mut work = ActivationWork::default();
        let safe = self.safe_time();

        // Initial evaluation at t = 0 (requires safe > 0 like any other
        // timestamp-0 work; no cross-LP message ever carries timestamp 0,
        // because gate delays are ≥ 1 and stimulus is preloaded).
        loop {
            let now = match self.head_time() {
                Some(t) if t < safe && t <= until => t,
                _ => break,
            };
            let initial = !self.did_initial;
            self.did_initial = true;
            self.step(circuit, topo, now, initial, block, &mut work, out);
        }
        self.frontier = safe.min(until + Delay::UNIT);

        if send_nulls {
            let spec = &topo.lps()[self.index];
            if !spec.out_channels.is_empty() {
                // Promise: future sends come from evaluations no earlier
                // than min(next local event, input safe time), each passing
                // a boundary gate of delay ≥ lookahead.
                let horizon = self.queue.peek_time().unwrap_or(VirtualTime::INFINITY).min(safe);
                let bound = (horizon + spec.lookahead).min(until + Delay::UNIT);
                for (&dst, last) in spec.out_channels.iter().zip(&mut self.last_null) {
                    if bound > *last {
                        *last = bound;
                        out(Outgoing::Null { dst, time: bound });
                    }
                }
            }
        }
        work
    }

    /// Processes one timestamp batch.
    #[allow(clippy::too_many_arguments)]
    fn step(
        &mut self,
        circuit: &Circuit,
        topo: &LpTopology,
        now: VirtualTime,
        initial: bool,
        block: &CompiledBlock,
        work: &mut ActivationWork,
        out: &mut impl FnMut(Outgoing<V>),
    ) {
        self.core.begin_batch();
        let my_index = self.index;

        // Phase 1: apply all events at `now`.
        while self.queue.peek_time() == Some(now) {
            let e = self.queue.pop().expect("peeked");
            work.events_popped += 1;
            if self.core.apply_event(now, &e).is_some() {
                self.core.mark_fanout(circuit, topo, my_index, e.net);
            }
        }
        if initial {
            self.core.mark_owned_non_source(circuit, &topo.lps()[self.index].gates);
        }

        // Phase 2: evaluate the dirty batch through the LP's bytecode (one
        // dispatch per same-kind run); transmit boundary events at
        // scheduling time. The queue orders by time and net, so emission
        // order is immaterial.
        let dirty = self.core.take_dirty_sorted();
        work.evaluations += dirty.len() as u64;
        let LpState { core, queue, .. } = self;
        core.evaluate_batch(block, &dirty, &mut |id, v, delay| {
            let e = Event::new(now + Delay::new(u64::from(delay)), id, v);
            work.events_scheduled += 1;
            let mut to_self = false;
            for &dst in topo.destinations(e.net) {
                if dst == my_index {
                    to_self = true;
                    queue.push(e);
                } else {
                    out(Outgoing::Event { dst, event: e });
                }
            }
            // A driver whose own LP is not among the destinations (no local
            // fanout) still tracks its output value locally for final-value
            // reporting.
            if !to_self {
                queue.push(e);
            }
        });
        self.core.recycle_dirty(dirty);
    }

    /// True once every local event up to `until` has been processed.
    pub(crate) fn done(&self, until: VirtualTime) -> bool {
        self.did_initial && self.queue.peek_time().is_none_or(|t| t > until)
    }

    /// Waveforms of this LP's observed nets (drained).
    pub(crate) fn take_waveforms(&mut self) -> BTreeMap<GateId, Waveform<V>> {
        self.core.take_waveforms()
    }

    /// Final values of the nets driven by this LP's gates.
    pub(crate) fn owned_values(&self, topo: &LpTopology) -> Vec<(GateId, V)> {
        self.core.owned_values(&topo.lps()[self.index].gates)
    }
}
