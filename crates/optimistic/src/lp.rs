//! The Time Warp logical-process state machine, shared by the modeled and
//! threaded drivers.

use std::collections::BTreeMap;

use parsim_core::{GateRuntime, LpTopology, SimStats, Waveform};
use parsim_event::{Event, VirtualTime};
use parsim_logic::LogicValue;
use parsim_machine::MachineConfig;
use parsim_netlist::{Circuit, Delay, GateId};
use parsim_runtime::{CompiledBlock, LpCore};

use crate::{Cancellation, StateSaving};

/// An incoming message, for batched delivery.
#[derive(Debug, Clone, Copy)]
pub(crate) enum TwIncoming<V> {
    /// A simulation event.
    Event(Event<V>),
    /// An anti-message.
    Anti(Event<V>),
}

/// A protocol action emitted by an LP, for the driver to route.
#[derive(Debug, Clone, Copy)]
pub(crate) enum TwOutgoing<V> {
    /// Deliver an event message.
    Event {
        /// Destination LP.
        dst: usize,
        /// The event.
        event: Event<V>,
    },
    /// Deliver an anti-message cancelling a previously sent event.
    Anti {
        /// Destination LP.
        dst: usize,
        /// The event to annihilate.
        event: Event<V>,
    },
}

/// Work performed by one action, for cost accounting.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct TwWork {
    pub events_processed: u64,
    pub evaluations: u64,
    pub events_scheduled: u64,
    pub state_slots_saved: u64,
    pub rollbacks: u64,
    pub events_rolled_back: u64,
    pub evaluations_rolled_back: u64,
    pub anti_messages: u64,
}

impl TwWork {
    /// Folds one action's work into this running total.
    pub(crate) fn accumulate(&mut self, w: &TwWork) {
        self.events_processed += w.events_processed;
        self.evaluations += w.evaluations;
        self.events_scheduled += w.events_scheduled;
        self.state_slots_saved += w.state_slots_saved;
        self.rollbacks += w.rollbacks;
        self.events_rolled_back += w.events_rolled_back;
        self.evaluations_rolled_back += w.evaluations_rolled_back;
        self.anti_messages += w.anti_messages;
    }

    /// Writes a run's total into the statistics every Time Warp driver
    /// reports: committed events, everything executed, everything undone.
    pub(crate) fn write_stats(&self, stats: &mut SimStats) {
        stats.events_processed = self.events_processed - self.events_rolled_back;
        stats.events_scheduled = self.events_scheduled;
        stats.gate_evaluations = self.evaluations;
        stats.rollbacks = self.rollbacks;
        stats.events_rolled_back = self.events_rolled_back;
        stats.anti_messages = self.anti_messages;
        stats.state_bytes_saved = self.state_slots_saved;
    }

    /// What one processor would be charged for the committed history alone
    /// (each event scheduled once and retrieved once) — the numerator of a
    /// modeled speedup.
    pub(crate) fn committed_cost(&self, machine: &MachineConfig) -> u64 {
        (self.evaluations - self.evaluations_rolled_back) * machine.eval_cost
            + 2 * (self.events_processed - self.events_rolled_back) * machine.event_cost
    }
}

/// Full-copy snapshot of LP state after a batch.
#[derive(Debug, Clone)]
struct Snapshot<V> {
    values: Vec<V>,
    runtimes: Vec<GateRuntime<V>>,
}

/// Incremental record: the state a batch overwrote.
#[derive(Debug, Clone, Default)]
struct Delta<V> {
    values: Vec<(GateId, V)>,
    runtimes: Vec<(GateId, GateRuntime<V>)>,
}

#[derive(Debug, Clone)]
enum History<V> {
    Copy(Vec<Snapshot<V>>),
    Incremental(Vec<Delta<V>>),
}

/// One Time Warp logical process: the kernel-independent [`LpCore`] (net
/// values, gate state, waveforms, dirty marking) plus the Time Warp layer —
/// event set, state-saving history, rollback and cancellation bookkeeping.
#[derive(Debug)]
pub(crate) struct TwLp<V> {
    pub(crate) index: usize,
    core: LpCore<V>,
    /// This LP's gates, ascending (snapshot runtime order).
    owned: Vec<GateId>,
    /// All live events, processed (`time ≤ lvt`) and unprocessed alike.
    events: BTreeMap<VirtualTime, Vec<Event<V>>>,
    /// Local virtual time: the last processed batch, `None` before the
    /// initial (t = 0) batch.
    lvt: Option<VirtualTime>,
    /// Times of processed batches, ascending; parallel to `history` and
    /// `outputs`.
    batches: Vec<VirtualTime>,
    history: History<V>,
    /// Messages sent by each processed batch.
    outputs: Vec<Vec<(usize, Event<V>)>>,
    /// Future events each batch scheduled into this LP's own event set
    /// (must be withdrawn when the batch rolls back).
    self_sends: Vec<Vec<Event<V>>>,
    /// Gate evaluations per batch (for committed-work accounting).
    batch_evals: Vec<u64>,
    /// Lazy cancellation: rolled-back sends awaiting regeneration,
    /// `(originating batch time, dst, event)`.
    pending_cancel: Vec<(VirtualTime, usize, Event<V>)>,
    cancellation: Cancellation,
    saving: StateSaving,
    /// Nets whose values participate in a copy snapshot.
    relevant: Vec<GateId>,
}

impl<V: LogicValue> TwLp<V> {
    pub(crate) fn new(
        circuit: &Circuit,
        topo: &LpTopology,
        index: usize,
        saving: StateSaving,
        cancellation: Cancellation,
        observed: impl Iterator<Item = GateId>,
    ) -> Self {
        let spec = &topo.lps()[index];
        let mut owned = spec.gates.clone();
        owned.sort_unstable();
        let mut relevant: Vec<GateId> = spec.gates.clone();
        for &g in &spec.gates {
            relevant.extend(circuit.fanin(g).iter().copied());
        }
        relevant.sort_unstable();
        relevant.dedup();
        TwLp {
            index,
            core: LpCore::new(circuit, observed),
            owned,
            events: BTreeMap::new(),
            lvt: None,
            batches: Vec::new(),
            history: match saving {
                StateSaving::Copy => History::Copy(Vec::new()),
                StateSaving::Incremental => History::Incremental(Vec::new()),
            },
            outputs: Vec::new(),
            self_sends: Vec::new(),
            batch_evals: Vec::new(),
            pending_cancel: Vec::new(),
            cancellation,
            saving,
            relevant,
        }
    }

    /// Preloads a stimulus/constant event (never triggers rollback: called
    /// before the simulation starts).
    pub(crate) fn preload(&mut self, event: Event<V>) {
        self.events.entry(event.time).or_default().push(event);
    }

    /// The earliest unprocessed work: the initial batch at t = 0 before
    /// anything else, then the earliest event beyond the LVT.
    pub(crate) fn next_time(&self) -> Option<VirtualTime> {
        match self.lvt {
            None => Some(VirtualTime::ZERO),
            Some(lvt) => self
                .events
                .range((std::ops::Bound::Excluded(lvt), std::ops::Bound::Unbounded))
                .next()
                .map(|(&t, _)| t),
        }
    }

    /// True once all work up to `until` is processed.
    pub(crate) fn done(&self, until: VirtualTime) -> bool {
        self.next_time().is_none_or(|t| t > until) && self.pending_cancel.is_empty()
    }

    /// Handles a batch of incoming messages with a **single** rollback to
    /// the batch's minimum timestamp.
    ///
    /// Processing messages one at a time would roll back once per message;
    /// since aggressive cancellation delivers `anti(e)` immediately followed
    /// by a regenerated `e`, per-message rollback doubles the rollback count
    /// at every hop and the echo grows exponentially with circuit depth.
    /// Batching is the standard Time Warp implementation remedy.
    pub(crate) fn receive_batch(
        &mut self,
        messages: Vec<TwIncoming<V>>,
        work: &mut TwWork,
        out: &mut impl FnMut(TwOutgoing<V>),
    ) {
        let min_time = messages
            .iter()
            .map(|m| match m {
                TwIncoming::Event(e) | TwIncoming::Anti(e) => e.time,
            })
            .min()
            .expect("batch is nonempty");
        if self.lvt.is_some_and(|lvt| min_time <= lvt) {
            self.rollback_to_before(min_time, work, out);
        }
        for msg in messages {
            match msg {
                TwIncoming::Event(e) => {
                    debug_assert!(self.lvt.is_none_or(|lvt| e.time > lvt));
                    self.events.entry(e.time).or_default().push(e);
                }
                TwIncoming::Anti(e) => {
                    debug_assert!(self.lvt.is_none_or(|lvt| e.time > lvt));
                    let bucket = self
                        .events
                        .get_mut(&e.time)
                        .expect("anti-message must chase a delivered event");
                    let pos = bucket
                        .iter()
                        .position(|x| *x == e)
                        .expect("anti-message must match a live event");
                    bucket.remove(pos);
                    if bucket.is_empty() {
                        self.events.remove(&e.time);
                    }
                }
            }
        }
        self.flush_lazy(work, out);
    }

    /// Handles an incoming event message; stragglers trigger rollback.
    pub(crate) fn receive_event(
        &mut self,
        event: Event<V>,
        work: &mut TwWork,
        out: &mut impl FnMut(TwOutgoing<V>),
    ) {
        if self.lvt.is_some_and(|lvt| event.time <= lvt) {
            self.rollback_to_before(event.time, work, out);
        }
        self.events.entry(event.time).or_default().push(event);
        self.flush_lazy(work, out);
    }

    /// Optimistically processes the next batch (if any at `≤ limit`),
    /// evaluating through `block` (this LP's bytecode). Returns `false` if
    /// there was nothing to do.
    pub(crate) fn process_next(
        &mut self,
        circuit: &Circuit,
        topo: &LpTopology,
        limit: VirtualTime,
        block: &CompiledBlock,
        work: &mut TwWork,
        out: &mut impl FnMut(TwOutgoing<V>),
    ) -> bool {
        let now = match self.next_time() {
            Some(t) if t <= limit => t,
            _ => return false,
        };
        let initial = self.lvt.is_none();

        let my_index = self.index;
        let mut delta = Delta::default();
        self.core.begin_batch();

        // Phase 1: apply all events at `now`.
        let batch: Vec<Event<V>> = self.events.get(&now).cloned().unwrap_or_default();
        work.events_processed += batch.len() as u64;
        for e in &batch {
            if let Some(old) = self.core.apply_event(now, e) {
                if self.saving == StateSaving::Incremental {
                    delta.values.push((e.net, old));
                }
                self.core.mark_fanout(circuit, topo, my_index, e.net);
            }
        }
        if initial {
            self.core.mark_owned_non_source(circuit, &topo.lps()[self.index].gates);
        }

        // Phase 2: evaluate each affected gate once, through the LP's
        // bytecode (one dispatch per same-kind run). Incremental saving
        // snapshots every dirty gate's sequential state up front — gates
        // only ever mutate their own state, so pre-batch and
        // pre-evaluation snapshots are identical.
        let dirty = self.core.take_dirty_sorted();
        work.evaluations += dirty.len() as u64;
        if self.saving == StateSaving::Incremental {
            for &id in &dirty {
                delta.runtimes.push((id, self.core.runtime(id)));
            }
        }
        let mut sent: Vec<(usize, Event<V>)> = Vec::new();
        let mut scheduled: Vec<Event<V>> = Vec::new();
        let TwLp { core, events, pending_cancel, .. } = self;
        core.evaluate_batch(block, &dirty, &mut |id, v, delay| {
            let e = Event::new(now + Delay::new(u64::from(delay)), id, v);
            work.events_scheduled += 1;
            // Self-delivery into the local event set (also covers
            // final-value tracking for nets with no local fanout).
            events.entry(e.time).or_default().push(e);
            scheduled.push(e);
            for &dst in topo.destinations(e.net) {
                if dst == my_index {
                    continue;
                }
                // Lazy cancellation: an identical rolled-back message is
                // still valid at the receiver — regenerate silently.
                if let Some(pos) =
                    pending_cancel.iter().position(|(_, d, pe)| *d == dst && *pe == e)
                {
                    pending_cancel.remove(pos);
                } else {
                    out(TwOutgoing::Event { dst, event: e });
                }
                sent.push((dst, e));
            }
        });
        let evals = dirty.len() as u64;
        self.core.recycle_dirty(dirty);

        // Phase 3: record history.
        match (&mut self.history, self.saving) {
            (History::Incremental(deltas), StateSaving::Incremental) => {
                work.state_slots_saved += (delta.values.len() + delta.runtimes.len() * 3) as u64;
                deltas.push(delta);
            }
            (History::Copy(snapshots), StateSaving::Copy) => {
                let snap = Snapshot {
                    values: self.relevant.iter().map(|&g| self.core.value(g)).collect(),
                    runtimes: self.owned.iter().map(|&g| self.core.runtime(g)).collect(),
                };
                work.state_slots_saved += (snap.values.len() + snap.runtimes.len() * 3) as u64;
                snapshots.push(snap);
            }
            _ => unreachable!("history representation matches the saving policy"),
        }
        self.batches.push(now);
        self.outputs.push(sent);
        self.self_sends.push(scheduled);
        self.batch_evals.push(evals);
        self.lvt = Some(now);
        self.flush_lazy(work, out);
        true
    }

    /// Rolls back so that every batch with time `≥ target` is undone.
    pub(crate) fn rollback_to_before(
        &mut self,
        target: VirtualTime,
        work: &mut TwWork,
        out: &mut impl FnMut(TwOutgoing<V>),
    ) {
        if self.batches.last().is_none_or(|&t| t < target) {
            return;
        }
        work.rollbacks += 1;
        while let Some(&t) = self.batches.last() {
            if t < target {
                break;
            }
            self.batches.pop();
            work.events_rolled_back += self.events.get(&t).map_or(0, |b| b.len() as u64);
            work.evaluations_rolled_back += self.batch_evals.pop().expect("eval count per batch");
            // Undo the state.
            match &mut self.history {
                History::Incremental(deltas) => {
                    let delta = deltas.pop().expect("delta per batch");
                    // Reverse order restores first-overwritten values last.
                    for &(g, rt) in delta.runtimes.iter().rev() {
                        self.core.set_runtime(g, rt);
                    }
                    for &(net, v) in delta.values.iter().rev() {
                        self.core.set_value_raw(net, v);
                    }
                }
                History::Copy(snapshots) => {
                    snapshots.pop().expect("snapshot per batch");
                    // State restored below, from the surviving snapshot.
                }
            }
            // Withdraw the batch's self-scheduled future events.
            for e in self.self_sends.pop().expect("self-sends per batch") {
                let bucket = self.events.get_mut(&e.time).expect("self-send is live");
                let pos = bucket.iter().position(|x| *x == e).expect("self-send is live");
                bucket.remove(pos);
                if bucket.is_empty() {
                    self.events.remove(&e.time);
                }
            }
            // Cancel the batch's sends.
            for (dst, e) in self.outputs.pop().expect("outputs per batch") {
                match self.cancellation {
                    Cancellation::Aggressive => {
                        work.anti_messages += 1;
                        out(TwOutgoing::Anti { dst, event: e });
                    }
                    Cancellation::Lazy => self.pending_cancel.push((t, dst, e)),
                }
            }
        }
        if let History::Copy(snapshots) = &self.history {
            match snapshots.last() {
                Some(snap) => {
                    for (&g, &v) in self.relevant.iter().zip(&snap.values) {
                        self.core.set_value_raw(g, v);
                    }
                    for (&g, &rt) in self.owned.iter().zip(&snap.runtimes) {
                        self.core.set_runtime(g, rt);
                    }
                }
                None => {
                    // Pre-initial state.
                    for &g in &self.relevant {
                        self.core.set_value_raw(g, V::ZERO);
                    }
                    for &g in &self.owned {
                        self.core.set_runtime(g, GateRuntime::default());
                    }
                }
            }
        }
        self.core.truncate_waveforms_from(target);
        self.lvt = self.batches.last().copied();
    }

    /// Lazy cancellation maintenance: once the frontier has moved past a
    /// rolled-back send's originating batch without regenerating it, the
    /// old message is known wrong and must be cancelled.
    fn flush_lazy(&mut self, work: &mut TwWork, out: &mut impl FnMut(TwOutgoing<V>)) {
        if self.pending_cancel.is_empty() {
            return;
        }
        // A pending send originating from batch time `b` can only be
        // regenerated by re-processing a batch at `b`; once the next
        // unprocessed time has moved past `b`, that will never happen.
        let frontier = self.next_time().unwrap_or(VirtualTime::INFINITY);
        let mut i = 0;
        while i < self.pending_cancel.len() {
            let (batch, _, _) = self.pending_cancel[i];
            if batch < frontier {
                let (_, dst, e) = self.pending_cancel.remove(i);
                work.anti_messages += 1;
                out(TwOutgoing::Anti { dst, event: e });
            } else {
                i += 1;
            }
        }
    }

    /// The earliest send of any batch still in the history: under
    /// breathing time buckets, the earliest send this LP holds.
    pub(crate) fn earliest_send(&self) -> Option<VirtualTime> {
        self.outputs.iter().flatten().map(|&(_, e)| e.time).min()
    }

    /// Fossil collection: discards history strictly older than `gvt` and
    /// returns the discarded batches' sends. Under incremental saving those
    /// are exactly the sends of every batch below `gvt` — what breathing
    /// time buckets releases once `gvt` is its commit point.
    pub(crate) fn fossil_collect(
        &mut self,
        gvt: VirtualTime,
    ) -> impl Iterator<Item = (usize, Event<V>)> + '_ {
        // Batches with time < gvt can never be rolled back. Copy mode keeps
        // the newest pre-GVT batch as the restoration base (its snapshot is
        // what a rollback to exactly `gvt` restores); incremental mode needs
        // no base because deltas unwind in place.
        let keep_from = self.batches.partition_point(|&t| t < gvt);
        let drop_to = match self.saving {
            StateSaving::Copy => keep_from.saturating_sub(1),
            StateSaving::Incremental => keep_from,
        };
        match &mut self.history {
            History::Incremental(deltas) => {
                deltas.drain(..drop_to);
            }
            History::Copy(snapshots) => {
                snapshots.drain(..drop_to);
            }
        }
        self.batches.drain(..drop_to);
        self.self_sends.drain(..drop_to);
        self.batch_evals.drain(..drop_to);

        // Committed events can be dropped.
        self.events = self.events.split_off(&gvt);
        self.outputs.drain(..drop_to).flatten()
    }

    /// Waveforms of this LP's observed nets (drained).
    pub(crate) fn take_waveforms(&mut self) -> BTreeMap<GateId, Waveform<V>> {
        self.core.take_waveforms()
    }

    /// Final values of the nets driven by this LP.
    pub(crate) fn owned_values(&self, topo: &LpTopology) -> Vec<(GateId, V)> {
        self.core.owned_values(&topo.lps()[self.index].gates)
    }
}
