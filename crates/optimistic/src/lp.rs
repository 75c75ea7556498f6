//! What every Time Warp kernel shares: the logical-process state machine,
//! its one message type, the per-processor LP set, the work counters and
//! their prices, and the probe records of an LP action.

use std::collections::{BTreeMap, HashMap};

use parsim_core::{GateRuntime, LpTopology, SimStats, Waveform};
use parsim_event::{Event, VirtualTime};
use parsim_logic::LogicValue;
use parsim_machine::MachineConfig;
use parsim_netlist::{Circuit, Delay, GateId};
use parsim_runtime::{CompiledBlock, Fabric, LpCore, WorkerOutput};
use parsim_trace::{ProbeHandle, TraceKind};

use crate::{Cancellation, StateSaving};

/// A Time Warp message, in both directions: an LP emits it with its
/// destination LP as `(dst, msg)`, and a delivered batch hands it back.
#[derive(Debug, Clone, Copy)]
pub enum TwMsg<V> {
    /// A simulation event.
    Event(Event<V>),
    /// An anti-message cancelling the identical, previously sent event.
    Anti(Event<V>),
}

impl<V> TwMsg<V> {
    /// The message's timestamp.
    pub(crate) fn time(&self) -> VirtualTime {
        match self {
            TwMsg::Event(e) | TwMsg::Anti(e) => e.time,
        }
    }
}

/// Work performed by one action, for cost accounting.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct TwWork {
    pub events_processed: u64,
    pub evaluations: u64,
    pub events_scheduled: u64,
    pub state_slots_saved: u64,
    /// Processed batches: one state save each.
    pub state_saves: u64,
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
        self.state_saves += w.state_saves;
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
        stats.state_saves = self.state_saves;
        stats.state_bytes_saved = self.state_slots_saved;
    }

    /// The price of this work's rollbacks and saved state slots under
    /// `saving`.
    pub(crate) fn saving_cost(&self, machine: &MachineConfig, saving: StateSaving) -> u64 {
        let slot_cost = match saving {
            StateSaving::Copy => machine.copy_save_cost,
            StateSaving::Incremental => machine.incremental_save_cost,
        };
        self.rollbacks * machine.rollback_cost + self.state_slots_saved * slot_cost
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

/// Lazy cancellation's rolled-back sends awaiting regeneration, keyed by
/// `(dst, event)` and kept in the order they were rolled back — the order
/// their anti-messages leave in if they are never regenerated.
///
/// A pending `(dst, event)` is unique: the event's net has one driving
/// gate with one delay, so only the batch at `event.time − delay` sends
/// it, and once the frontier passes that batch every send it left pending
/// is flushed before the batch can roll back again.
#[derive(Debug)]
struct PendingCancels<V> {
    /// `(originating batch time, dst, event)`; `None` once regenerated.
    entries: Vec<Option<(VirtualTime, usize, Event<V>)>>,
    /// Each pending send's index in `entries`.
    index: HashMap<(usize, Event<V>), usize>,
}

impl<V: LogicValue> PendingCancels<V> {
    fn new() -> Self {
        PendingCancels { entries: Vec::new(), index: HashMap::new() }
    }

    fn is_empty(&self) -> bool {
        self.index.is_empty()
    }

    fn push(&mut self, batch: VirtualTime, dst: usize, e: Event<V>) {
        let fresh = self.index.insert((dst, e), self.entries.len()).is_none();
        debug_assert!(fresh, "pending send {e:?} to LP {dst} inserted twice");
        self.entries.push(Some((batch, dst, e)));
    }

    /// Withdraws the pending `(dst, e)`, if any: the receiver still holds
    /// that message, so regenerating it sends nothing.
    fn regenerate(&mut self, dst: usize, e: Event<V>) -> bool {
        if self.index.is_empty() {
            return false;
        }
        match self.index.remove(&(dst, e)) {
            Some(i) => {
                self.entries[i] = None;
                // `flush_lazy` skips an empty set, so its tombstones go here.
                if self.index.is_empty() {
                    self.entries.clear();
                }
                true
            }
            None => false,
        }
    }

    /// Cancels, in insertion order, every pending send whose originating
    /// batch is behind `frontier`, and compacts what stays.
    fn flush(
        &mut self,
        frontier: VirtualTime,
        work: &mut TwWork,
        out: &mut impl FnMut(usize, TwMsg<V>),
    ) {
        let PendingCancels { entries, index } = self;
        let (mut read, mut kept) = (0, 0);
        entries.retain(|slot| {
            read += 1;
            let Some((batch, dst, e)) = *slot else { return false };
            if batch < frontier {
                index.remove(&(dst, e));
                work.anti_messages += 1;
                out(dst, TwMsg::Anti(e));
                return false;
            }
            if kept != read - 1 {
                *index.get_mut(&(dst, e)).expect("a pending send is indexed") = kept;
            }
            kept += 1;
            true
        });
    }
}

/// Withdraws one rolled-back batch's self-sends (in the order it pushed
/// them) from `events`, with one pass per bucket.
///
/// Grouped by time with a stable sort, the sends are a subsequence of
/// their bucket, and no other event in it equals one of them: a gate is
/// evaluated at most once per batch and has one delay, so only this batch
/// schedules that `(time, net)`, and a bucket keeps its events in push
/// order. Matching the subsequence therefore removes exactly what removing
/// each send's first occurrence, one at a time, would.
fn withdraw<V: LogicValue>(
    events: &mut BTreeMap<VirtualTime, Vec<Event<V>>>,
    mut sends: Vec<Event<V>>,
) {
    sends.sort_by_key(|e| e.time);
    for group in sends.chunk_by(|a, b| a.time == b.time) {
        let t = group[0].time;
        let bucket = events.get_mut(&t).expect("self-send is live");
        let mut next = group.iter().peekable();
        bucket.retain(|x| {
            if next.peek().is_some_and(|&e| e == x) {
                next.next();
                return false;
            }
            true
        });
        debug_assert!(next.peek().is_none(), "withdrawn self-send {:?} is not live", next.peek());
        if bucket.is_empty() {
            events.remove(&t);
        }
    }
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
    /// Lazy cancellation: rolled-back sends awaiting regeneration.
    pending_cancel: PendingCancels<V>,
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
            pending_cancel: PendingCancels::new(),
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
        messages: Vec<TwMsg<V>>,
        work: &mut TwWork,
        out: &mut impl FnMut(usize, TwMsg<V>),
    ) {
        let min_time = messages.iter().map(TwMsg::time).min().expect("batch is nonempty");
        if self.lvt.is_some_and(|lvt| min_time <= lvt) {
            self.rollback_to_before(min_time, work, out);
        }
        for msg in messages {
            match msg {
                TwMsg::Event(e) => {
                    debug_assert!(self.lvt.is_none_or(|lvt| e.time > lvt));
                    self.events.entry(e.time).or_default().push(e);
                }
                TwMsg::Anti(e) => {
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
        out: &mut impl FnMut(usize, TwMsg<V>),
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
                if !pending_cancel.regenerate(dst, e) {
                    out(dst, TwMsg::Event(e));
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
        work.state_saves += 1;
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
        out: &mut impl FnMut(usize, TwMsg<V>),
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
            withdraw(&mut self.events, self.self_sends.pop().expect("self-sends per batch"));
            // Cancel the batch's sends.
            for (dst, e) in self.outputs.pop().expect("outputs per batch") {
                match self.cancellation {
                    Cancellation::Aggressive => {
                        work.anti_messages += 1;
                        out(dst, TwMsg::Anti(e));
                    }
                    Cancellation::Lazy => self.pending_cancel.push(t, dst, e),
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
    fn flush_lazy(&mut self, work: &mut TwWork, out: &mut impl FnMut(usize, TwMsg<V>)) {
        if self.pending_cancel.is_empty() {
            return;
        }
        // A pending send originating from batch time `b` can only be
        // regenerated by re-processing a batch at `b`; once the next
        // unprocessed time has moved past `b`, that will never happen.
        let frontier = self.next_time().unwrap_or(VirtualTime::INFINITY);
        self.pending_cancel.flush(frontier, work, out);
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

/// One processor's LPs plus their accumulated work counters: a fabric
/// worker under the threaded and breathing-time-buckets protocols, and one
/// processor of the modeled Time Warp scheduler.
pub struct TwWorker<V> {
    pub(crate) lps: Vec<TwLp<V>>,
    pub(crate) total: TwWork,
    pub(crate) stats: SimStats,
    pub(crate) gvt_rounds: u64,
}

impl<V: LogicValue> TwWorker<V> {
    /// Builds worker `worker`'s LPs and preloads them.
    pub(crate) fn new(
        fabric: &Fabric<'_>,
        worker: usize,
        preloads: Vec<Vec<Event<V>>>,
        saving: StateSaving,
        cancellation: Cancellation,
    ) -> Self {
        let (circuit, topo) = (fabric.circuit(), fabric.topo());
        let mut lps: Vec<TwLp<V>> = fabric
            .my_lps(worker)
            .map(|i| TwLp::new(circuit, topo, i, saving, cancellation, fabric.observed_by(i)))
            .collect();
        for (lp, events) in lps.iter_mut().zip(preloads) {
            for e in events {
                lp.preload(e);
            }
        }
        TwWorker { lps, total: TwWork::default(), stats: SimStats::default(), gvt_rounds: 0 }
    }

    /// Tears the worker down into its share of the merged result.
    pub(crate) fn finish(mut self, fabric: &Fabric<'_>) -> WorkerOutput<V> {
        let mut owned_values = Vec::new();
        let mut waveforms = BTreeMap::new();
        for lp in &mut self.lps {
            owned_values.extend(lp.owned_values(fabric.topo()));
            waveforms.extend(lp.take_waveforms());
        }
        let mut stats = self.stats;
        self.total.write_stats(&mut stats);
        stats.gvt_rounds = self.gvt_rounds;
        WorkerOutput { owned_values, waveforms, stats }
    }
}

/// Records one LP action's work on processor `p` for LP `lp`: batched gate
/// evaluations, a rollback (`arg` = events undone) and the state saved.
/// `now` stamps the records and is read only when the probe is enabled.
pub(crate) fn emit_work(
    ph: &mut ProbeHandle,
    now: impl FnOnce(&ProbeHandle) -> u64,
    p: usize,
    lp: usize,
    w: &TwWork,
) {
    if !ph.enabled() {
        return;
    }
    let t = now(ph);
    if w.evaluations > 0 {
        ph.emit(t, 0, p as u32, lp as u32, TraceKind::GateEval, w.evaluations);
    }
    if w.rollbacks > 0 {
        ph.emit(t, 0, p as u32, lp as u32, TraceKind::Rollback, w.events_rolled_back);
    }
    if w.state_slots_saved > 0 {
        ph.emit(t, 0, p as u32, lp as u32, TraceKind::StateSave, w.state_slots_saved);
    }
}

/// Records one routed message on processor `p`: a `MessageSend` or an
/// `AntiMessage` from LP `src` (`arg` = destination LP `dst`). `now` stamps
/// the record and is read only when the probe is enabled.
pub(crate) fn emit_send<V>(
    ph: &mut ProbeHandle,
    now: impl FnOnce(&ProbeHandle) -> u64,
    p: usize,
    src: usize,
    dst: usize,
    msg: &TwMsg<V>,
) {
    if !ph.enabled() {
        return;
    }
    let kind = match msg {
        TwMsg::Event(_) => TraceKind::MessageSend,
        TwMsg::Anti(_) => TraceKind::AntiMessage,
    };
    let t = now(ph);
    ph.emit(t, msg.time().ticks(), p as u32, src as u32, kind, dst as u64);
}

#[cfg(test)]
mod tests {
    use super::*;
    use parsim_logic::Logic4;
    use proptest::prelude::*;

    type Events = BTreeMap<VirtualTime, Vec<Event<Logic4>>>;

    /// The withdrawal `withdraw` replaced: each send's first occurrence,
    /// one `position` and one `remove` at a time.
    fn withdraw_first_match(events: &mut Events, sends: Vec<Event<Logic4>>) {
        for e in sends {
            let bucket = events.get_mut(&e.time).expect("self-send is live");
            let pos = bucket.iter().position(|x| *x == e).expect("self-send is live");
            bucket.remove(pos);
            if bucket.is_empty() {
                events.remove(&e.time);
            }
        }
    }

    fn push(events: &mut Events, e: Event<Logic4>) {
        events.entry(e.time).or_default().push(e);
    }

    /// An event set as an LP builds it — preloads on input nets, then
    /// batches in time order whose self-sends (owned gates, one delay
    /// each, at most one evaluation per batch) interleave with remote-net
    /// arrivals at the same times — and the self-sends of every batch.
    fn build(seed: u64, batches: usize) -> (Events, Vec<Vec<Event<Logic4>>>) {
        let mut rng = proptest::test_runner::TestRng::from_seed(seed);
        let value = |rng: &mut proptest::test_runner::TestRng| match rng.below(4) {
            0 => Logic4::Zero,
            1 => Logic4::One,
            2 => Logic4::X,
            _ => Logic4::Z,
        };
        let (inputs, owned, remote) = (0..4usize, 4..16usize, 16..24usize);
        let delay = |g: usize| 1 + g as u64 % 5;
        let mut events = Events::new();
        for _ in 0..rng.below(12) {
            let net = GateId::new(inputs.start + rng.below(4) as usize);
            let e = Event::new(VirtualTime::new(rng.below(16)), net, value(&mut rng));
            push(&mut events, e);
        }
        let mut self_sends = Vec::new();
        for b in 0..batches as u64 {
            let mut sends = Vec::new();
            for g in owned.clone() {
                if rng.below(2) == 0 {
                    continue;
                }
                for _ in 0..rng.below(3) {
                    let net = GateId::new(remote.start + rng.below(8) as usize);
                    let t = VirtualTime::new(b + 1 + rng.below(5));
                    push(&mut events, Event::new(t, net, value(&mut rng)));
                }
                let e = Event::new(VirtualTime::new(b + delay(g)), GateId::new(g), value(&mut rng));
                push(&mut events, e);
                sends.push(e);
            }
            self_sends.push(sends);
        }
        (events, self_sends)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Rolling back the last `undo` batches, latest first, leaves the
        /// event set the first-match loop leaves: the same buckets, each
        /// with the same events in the same order.
        #[test]
        fn one_pass_withdrawal_matches_first_match(
            seed in any::<u64>(),
            batches in 1usize..10,
            undo in 1usize..10,
        ) {
            let (events, mut self_sends) = build(seed, batches);
            let (mut one_pass, mut first_match) = (events.clone(), events);
            for sends in self_sends.drain(batches.saturating_sub(undo)..).rev() {
                withdraw(&mut one_pass, sends.clone());
                withdraw_first_match(&mut first_match, sends);
            }
            prop_assert_eq!(one_pass, first_match);
        }
    }

    /// The two uniqueness invariants are checked in debug builds: a
    /// withdrawn self-send that is not live, and a pending send inserted
    /// twice, both panic there.
    #[test]
    fn broken_uniqueness_fails_debug_builds() {
        let e = Event::new(VirtualTime::new(3), GateId::new(1), Logic4::One);
        let other = Event::new(VirtualTime::new(3), GateId::new(2), Logic4::One);
        let missing = std::panic::catch_unwind(|| {
            let mut events = Events::new();
            push(&mut events, other);
            withdraw(&mut events, vec![e]);
        });
        assert_eq!(missing.is_err(), cfg!(debug_assertions));
        let twice = std::panic::catch_unwind(|| {
            let mut pending = PendingCancels::new();
            pending.push(VirtualTime::new(1), 0, e);
            pending.push(VirtualTime::new(1), 0, e);
        });
        assert_eq!(twice.is_err(), cfg!(debug_assertions));
    }
}
