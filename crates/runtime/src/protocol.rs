//! The synchronization-protocol interface the fabric drives.
//!
//! §IV of the paper surveys synchronization disciplines — synchronous
//! (global barrier per timestep), conservative (channel clocks and null
//! messages), optimistic (rollback and GVT). What *varies* between them is
//! exactly what [`SyncProtocol`] captures: the per-worker state, the
//! message type, what one round of local work does, and how a coordinator
//! turns the workers' round reports into the next global verdict. What
//! does *not* vary — thread pool, mailbox mesh, barrier cadence, result
//! merging, probe plumbing — lives in [`Fabric`](crate::Fabric).

use crate::sync::{AtomicU64, Ordering};
use std::collections::BTreeMap;

use parsim_core::{SimStats, Waveform};
use parsim_event::VirtualTime;
use parsim_logic::LogicValue;
use parsim_machine::VirtualMachine;
use parsim_netlist::GateId;
use parsim_trace::ProbeHandle;

use crate::mailbox::Outbox;
use crate::Fabric;

/// The coordinator's verdict after one round, broadcast to every worker.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Decision<T> {
    /// Run another round under the given verdict.
    Continue(T),
    /// The run is complete: workers finalize and exit.
    Stop,
    /// A protocol invariant broke. Every worker leaves the round loop (so
    /// no one hangs at a barrier), no worker contributes partial results,
    /// and the run fails with
    /// [`SimError::ProtocolAbort`](parsim_core::SimError) carrying the
    /// message.
    Abort(String),
}

/// A worker's best-effort progress marks (last LP served, last virtual
/// time reached), shared with the fabric so a failure diagnostic can say
/// *where* the worker was — not just that it died.
///
/// `u64::MAX` encodes "never marked". Relaxed ordering is enough: the
/// marks are heuristics read after the worker has already failed.
#[derive(Debug)]
pub(crate) struct WorkerProgress {
    lp: AtomicU64,
    vt: AtomicU64,
}

impl WorkerProgress {
    pub(crate) fn new() -> Self {
        WorkerProgress { lp: AtomicU64::new(u64::MAX), vt: AtomicU64::new(u64::MAX) }
    }

    fn mark(&self, lp: usize, vt: VirtualTime) {
        // relaxed: progress beacons read only for post-mortem diagnostics
        // (WorkerDiagnostic); the reader tolerates any stale value and no
        // other data is published through these cells.
        self.lp.store(lp as u64, Ordering::Relaxed);
        // relaxed: same diagnostics-beacon argument as the store above.
        self.vt.store(vt.ticks(), Ordering::Relaxed);
    }

    pub(crate) fn lp(&self) -> Option<usize> {
        // relaxed: diagnostics-only read; staleness is acceptable.
        match self.lp.load(Ordering::Relaxed) {
            u64::MAX => None,
            lp => Some(lp as usize),
        }
    }

    pub(crate) fn virtual_time(&self) -> Option<VirtualTime> {
        // relaxed: diagnostics-only read; staleness is acceptable.
        match self.vt.load(Ordering::Relaxed) {
            u64::MAX => None,
            vt => Some(VirtualTime::new(vt)),
        }
    }
}

/// The modeled driver's side of a run ([`Fabric::run_modeled`]): the
/// virtual machine every protocol action is charged to, plus the arrival
/// stamps that travel beside the mesh's messages. Absent on threads.
#[derive(Debug)]
pub(crate) struct ModeledRun {
    pub(crate) vm: VirtualMachine,
    /// [`SyncProtocol::SUPERSTEP`] of the protocol being driven.
    pub(crate) superstep: bool,
    /// Ready times of the messages sent this round, per destination worker.
    /// Workers are stepped in index order and the mesh drains its rings in
    /// sender order, so this is exactly next round's inbox order.
    in_flight: Vec<Vec<u64>>,
    /// Ready times aligned index for index with each worker's inbox.
    pub(crate) arrived: Vec<Vec<u64>>,
    /// Evaluations and scheduled events reported through
    /// [`RoundCx::charge`]: the one-processor work a speedup is against.
    pub(crate) evaluated: u64,
    pub(crate) scheduled: u64,
}

impl ModeledRun {
    pub(crate) fn new(vm: VirtualMachine, superstep: bool) -> Self {
        let workers = vm.processors();
        ModeledRun {
            vm,
            superstep,
            in_flight: vec![Vec::new(); workers],
            arrived: vec![Vec::new(); workers],
            evaluated: 0,
            scheduled: 0,
        }
    }

    /// Last round's sent stamps become this round's arrival stamps.
    pub(crate) fn begin_round(&mut self) {
        for (arrived, sent) in self.arrived.iter_mut().zip(&mut self.in_flight) {
            arrived.clear();
            std::mem::swap(arrived, sent);
        }
    }

    fn send(&mut self, src: usize, dst: usize) {
        let ready = self.vm.send(src, dst);
        if self.superstep {
            // The round's barrier hides the latency: the receiver pays for
            // the delivery inside the superstep it was sent in.
            let recv = self.vm.config().recv_cost;
            self.vm.charge(dst, recv);
        } else {
            self.in_flight[dst].push(ready);
        }
    }
}

/// What one worker hands back when its rounds are over.
#[derive(Debug)]
pub struct WorkerOutput<V> {
    /// Final value of every net owned by this worker's LPs.
    pub owned_values: Vec<(GateId, V)>,
    /// Waveforms of this worker's observed nets.
    pub waveforms: BTreeMap<GateId, Waveform<V>>,
    /// This worker's share of the run statistics.
    pub stats: SimStats,
}

/// Per-round context handed to [`SyncProtocol::round`].
///
/// The fabric drains the worker's mailbox into `inbox` before the call and
/// flushes `outbox` after it, so a protocol only routes logical messages;
/// batching and delivery are the mailbox's problem.
#[derive(Debug)]
pub struct RoundCx<'a, 'm, M> {
    /// This worker's index.
    pub worker: usize,
    /// Simulation horizon.
    pub until: VirtualTime,
    /// Messages that arrived since the previous round. The protocol must
    /// consume them (`drain(..)`); anything left is discarded.
    pub inbox: &'a mut Vec<M>,
    /// Batched sender to every worker (including this one: self-posts are
    /// delivered next round).
    pub outbox: &'a mut Outbox<'m, M>,
    /// This worker thread's trace recorder.
    pub probe: &'a mut ProbeHandle,
    /// LPs per worker: a message for LP `l` goes to worker
    /// `l / granularity`.
    pub granularity: usize,
    /// This worker's shared progress marks (see [`RoundCx::note_progress`]).
    pub(crate) progress: &'a WorkerProgress,
    /// Shared processed-event counter feeding the run budget (see
    /// [`RoundCx::charge`]).
    pub(crate) events: &'a AtomicU64,
    /// The virtual machine to charge, under the modeled driver.
    pub(crate) modeled: Option<&'a mut ModeledRun>,
}

impl<M: Clone> RoundCx<'_, '_, M> {
    /// Sends `msg` to the worker owning LP `dst_lp`.
    #[inline]
    pub fn send_lp(&mut self, dst_lp: usize, msg: M) {
        let dst = dst_lp / self.granularity;
        if let Some(m) = &mut self.modeled {
            m.send(self.worker, dst);
        }
        self.outbox.send(dst, msg);
    }
}

impl<M> RoundCx<'_, '_, M> {
    /// The timeline position for a trace record emitted now: host
    /// nanoseconds on the threaded driver, this processor's clock in cost
    /// units on the modeled one.
    #[inline]
    pub fn now(&self) -> u64 {
        match &self.modeled {
            Some(m) => m.vm.clock(self.worker),
            None => self.probe.now_ns(),
        }
    }

    /// Marks inbox message `index` as taken off the wire: the modeled
    /// processor waits for its arrival and pays the receive (unless rounds
    /// are [`SyncProtocol::SUPERSTEP`]s, where the sender's round did).
    #[inline]
    pub fn receive(&mut self, index: usize) {
        if let Some(m) = &mut self.modeled {
            if !m.superstep {
                m.vm.receive(self.worker, m.arrived[self.worker][index]);
            }
        }
    }

    /// Marks that this worker is working on LP `lp` at virtual time `vt`.
    /// Best effort: feeds the `WorkerDiagnostic` of a failure report, so a
    /// crashed run can say where each worker was.
    #[inline]
    pub fn note_progress(&mut self, lp: usize, vt: VirtualTime) {
        self.progress.mark(lp, vt);
    }

    /// Reports a stretch of local work: `popped` events taken off the
    /// queue, `evaluated` gates, `scheduled` output events. `popped` counts
    /// against the run budget
    /// ([`RunBudget::max_events`](parsim_core::RunBudget)) — unreported work
    /// is invisible to it — and the modeled driver charges all three to
    /// this processor at the machine's event and evaluation prices.
    /// Messages sent before the call leave at the clock before the charge.
    #[inline]
    pub fn charge(&mut self, popped: u64, evaluated: u64, scheduled: u64) {
        if popped > 0 {
            // relaxed: monotonic statistics counter; the budget check reads
            // it after a barrier, which already orders the updates.
            self.events.fetch_add(popped, Ordering::Relaxed);
        }
        if let Some(m) = &mut self.modeled {
            let price = m.vm.config();
            let cost = (popped + scheduled) * price.event_cost + evaluated * price.eval_cost;
            m.vm.charge(self.worker, cost);
            m.evaluated += evaluated;
            m.scheduled += scheduled;
        }
    }
}

/// Context handed to [`SyncProtocol::decide`] (runs inside the round
/// rendezvous, on whichever worker arrived last, while every peer is held).
#[derive(Debug)]
pub struct DecideCx<'a> {
    /// Simulation horizon.
    pub until: VirtualTime,
    /// Rounds completed so far, including the one being decided.
    pub round: u64,
    /// The deciding worker's trace recorder.
    pub probe: &'a mut ProbeHandle,
    /// Commit-frontier slot (see [`DecideCx::note_frontier`]); `u64::MAX`
    /// encodes "never noted".
    pub(crate) frontier: &'a AtomicU64,
    /// The virtual machine to charge, under the modeled driver.
    pub(crate) modeled: Option<&'a mut ModeledRun>,
}

impl DecideCx<'_> {
    /// Records the global commit frontier as of this round: every event
    /// with timestamp strictly below `vt` is final and can never change.
    /// Protocols call this each round with their natural frontier — the
    /// synchronous kernel's next step time, the conservative kernel's
    /// minimum LP frontier, Time Warp's GVT.
    ///
    /// The fabric consumes the last noted value when a
    /// [`RunBudget`](parsim_core::RunBudget) truncates the run: the merged
    /// outcome's `end_time` is clipped to the frontier and any speculative
    /// waveform transitions at or past it are dropped, so partial results
    /// (and any chunks already streamed from them) never claim unsimulated
    /// time. An infinite `vt` is ignored.
    #[inline]
    pub fn note_frontier(&mut self, vt: VirtualTime) {
        if !vt.is_infinite() {
            // Release pairs with the merge-side Acquire load; in practice
            // the worker join already orders it.
            self.frontier.store(vt.ticks(), Ordering::Release);
        }
    }

    /// Charges the modeled machine for agreeing on a verdict without a
    /// barrier: a marker hops serially through every processor, then each
    /// takes delivery of the broadcast result. Free on the threaded driver.
    pub fn charge_marker_round(&mut self) {
        if let Some(m) = &mut self.modeled {
            for p in 1..m.vm.processors() {
                let ready = m.vm.send(p - 1, p);
                m.vm.receive(p, ready);
            }
            let recv = m.vm.config().recv_cost;
            for p in 0..m.vm.processors() {
                m.vm.charge(p, recv);
            }
        }
    }
}

/// One synchronization discipline, pluggable into the fabric.
///
/// The fabric runs every worker through the same loop:
///
/// ```text
/// loop {
///     drain mailbox → inbox                         // up to the round seal
///     report = protocol.round(state, verdict, cx)   // act on verdict,
///     flush outbox, seal the round                  // apply inbox, work
///     rendezvous {                                  // one barrier crossing
///         last arriver: decision = protocol.decide(reports)
///     }
///     Continue(v) → verdict = v;  Stop/Abort → leave
/// }
/// ```
///
/// Messages posted during round *r* are in every inbox at round *r + 1*,
/// and nothing else is: nobody is released into round *r + 1* before
/// everybody has flushed round *r* (the rendezvous), and a drain stops at
/// what its senders had posted when they sealed round *r* (the mesh), so a
/// fast peer's round-*r + 1* posts wait for round *r + 2*. What a worker
/// receives in a round therefore never depends on thread timing. A verdict
/// decided after round *r* is acted on at the *start* of round *r + 1*
/// (e.g. deadlock recovery, fossil collection), which is equivalent to
/// acting right after the release since nothing happens in between.
pub trait SyncProtocol<V: LogicValue>: Sync {
    /// The family's cost convention on the modeled machine
    /// ([`Fabric::run_modeled`]): is a round a barrier-synchronized superstep
    /// of the discipline itself, or only the driver's way of interleaving
    /// LPs that a real machine would run asynchronously? `true`: every round
    /// ends in one machine barrier, which hides message latency — the
    /// receiver pays for a delivery in the round it was sent. `false`: no
    /// barrier; a message is receivable one latency after its send, and the
    /// receiver waits and pays when the protocol takes it
    /// ([`RoundCx::receive`]).
    const SUPERSTEP: bool = false;

    /// Inter-worker message (events, nulls, anti-messages…). `Clone` lets
    /// the mailbox mesh's fault-injection layer duplicate a batch.
    type Msg: Send + Clone;
    /// Per-worker protocol state (LPs, queues, counters).
    type Worker: Send;
    /// What a worker reports after each round (flags, head times…).
    type Report: Send;
    /// What the coordinator broadcasts for the next round (step time,
    /// GVT, recovery target…).
    type Verdict: Clone + Send;

    /// Builds worker `worker`'s state. `preloads[slot]` holds the
    /// stimulus/constant events routed to the worker's `slot`-th LP
    /// (ascending LP order, see [`Fabric::my_lps`]).
    fn worker(
        &self,
        fabric: &Fabric<'_>,
        worker: usize,
        preloads: Vec<Vec<parsim_event::Event<V>>>,
    ) -> Self::Worker;

    /// The verdict in force for the first round, before any report exists.
    fn first_verdict(&self) -> Self::Verdict;

    /// One round of local work: act on `verdict`, apply `cx.inbox`, then
    /// advance the worker's LPs, routing messages through `cx`.
    fn round(
        &self,
        fabric: &Fabric<'_>,
        state: &mut Self::Worker,
        verdict: &Self::Verdict,
        cx: &mut RoundCx<'_, '_, Self::Msg>,
    ) -> Self::Report;

    /// Coordinator step: fold every worker's report into the next
    /// decision. `reports[p]` is always `Some` (every worker reported this
    /// round); the fabric clears the slots afterwards.
    fn decide(
        &self,
        fabric: &Fabric<'_>,
        reports: &mut [Option<Self::Report>],
        cx: &mut DecideCx<'_>,
    ) -> Decision<Self::Verdict>;

    /// Tears a worker's state down into the merged-result contribution.
    fn finish(&self, fabric: &Fabric<'_>, worker: usize, state: Self::Worker) -> WorkerOutput<V>;
}
