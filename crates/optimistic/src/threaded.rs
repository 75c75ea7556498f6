//! The threaded Time Warp kernel, as a protocol on the shared fabric.

use std::collections::BTreeMap;
use std::marker::PhantomData;

use parsim_core::{Observe, RunBudget, SimError, SimOutcome, SimStats, Simulator, Stimulus};
use parsim_event::{Event, VirtualTime};
use parsim_logic::LogicValue;
use parsim_netlist::Circuit;
use parsim_partition::Partition;
use parsim_runtime::{
    CompiledMode, DecideCx, Decision, Fabric, FaultPlan, RoundCx, RunOptions, SyncProtocol,
    WorkerOutput,
};
use parsim_trace::{Probe, ProbeHandle, TraceKind, NO_LP};

use crate::lp::{TwIncoming, TwLp, TwOutgoing, TwWork};
use crate::{Cancellation, StateSaving};

/// Batches each LP may process per round, bounding optimism drift between
/// GVT computations.
const BATCH_BUDGET: usize = 4;

/// Time Warp on real threads.
///
/// One worker per partition block, driven by the shared [`Fabric`], each
/// optimistically processing its LPs between rounds; messages crossing a
/// round boundary arrive *after* the receiver has already speculated ahead,
/// producing genuine stragglers and rollbacks. GVT is computed at the round
/// barrier (where it is exact) and drives fossil collection and
/// termination.
///
/// Committed results are identical to the sequential reference, and the
/// statistics (rollback counts, anti-messages, the whole `SimStats`) repeat
/// exactly from run to run: the fabric delivers in round `r` exactly what
/// was posted in round `r − 1`, so which stragglers an LP meets is decided
/// by the round structure, not by thread timing. The instability §V
/// describes shows as sensitivity to partition, batch budget and stimulus,
/// not as run-to-run noise.
#[derive(Debug, Clone)]
pub struct ThreadedTimeWarpSimulator<V> {
    partition: Partition,
    saving: StateSaving,
    cancellation: Cancellation,
    granularity: usize,
    observe: Observe,
    probe: Probe,
    options: RunOptions,
    compiled: CompiledMode,
    _values: PhantomData<V>,
}

impl<V: LogicValue> ThreadedTimeWarpSimulator<V> {
    /// Creates the kernel; one thread per partition block.
    pub fn new(partition: Partition) -> Self {
        ThreadedTimeWarpSimulator {
            partition,
            saving: StateSaving::Incremental,
            cancellation: Cancellation::Lazy,
            granularity: 1,
            observe: Observe::Outputs,
            probe: Probe::disabled(),
            options: RunOptions::default(),
            compiled: CompiledMode::Off,
            _values: PhantomData,
        }
    }

    /// Switches gate evaluation to compiled bytecode: each LP's gate block
    /// is lowered once, up front, and speculative batches run through the
    /// dispatch-free executors (state saving and rollback are untouched).
    /// Committed results are bit-identical to the interpreted default.
    pub fn with_compiled(mut self) -> Self {
        self.compiled = CompiledMode::InMemory;
        self
    }

    /// Compiled evaluation through the on-disk artifact store rooted at
    /// `dir`: a warm cache skips compilation entirely.
    pub fn with_compiled_cache(mut self, dir: impl Into<std::path::PathBuf>) -> Self {
        self.compiled = CompiledMode::Cached(dir.into());
        self
    }

    /// Attaches a trace probe. Workers record wall-clock `BarrierWait`
    /// spans, rollbacks (`arg` = events undone), state saves, batched gate
    /// evaluations, event/anti-message sends (`lp` = source LP, `arg` =
    /// destination LP) and one `GvtAdvance` per round (processor 0).
    pub fn with_probe(mut self, probe: Probe) -> Self {
        self.probe = probe;
        self
    }

    /// Selects the state-saving discipline.
    pub fn with_state_saving(mut self, saving: StateSaving) -> Self {
        self.saving = saving;
        self
    }

    /// Selects the cancellation discipline.
    pub fn with_cancellation(mut self, cancellation: Cancellation) -> Self {
        self.cancellation = cancellation;
        self
    }

    /// Splits every block into `factor` LPs.
    ///
    /// # Panics
    ///
    /// Panics if `factor` is zero.
    pub fn with_granularity(mut self, factor: usize) -> Self {
        assert!(factor >= 1, "granularity factor must be at least 1");
        self.granularity = factor;
        self
    }

    /// Selects which nets to record waveforms for.
    pub fn with_observe(mut self, observe: Observe) -> Self {
        self.observe = observe;
        self
    }

    /// Bounds the run (rounds, events, wall clock); an exhausted budget
    /// truncates gracefully instead of erroring.
    pub fn with_budget(mut self, budget: RunBudget) -> Self {
        self.options.budget = budget;
        self
    }

    /// Attaches a fault-injection plan for [`try_run`](Self::try_run).
    /// Batch faults are addressed per channel: a plan names the
    /// `(sender, receiver)` worker pair and the batch sequence number
    /// *on that channel* (sequences are per-channel counters, matching
    /// the mesh's one-SPSC-ring-per-pair transport).
    pub fn with_faults(mut self, plan: FaultPlan) -> Self {
        self.options.faults = Some(plan);
        self
    }

    /// Bounds every barrier wait: a worker that stops participating
    /// without panicking (a hang, not a crash) fails the run with
    /// [`SimError::BarrierTimeout`] naming the stalled workers, instead of
    /// blocking its peers forever.
    pub fn with_barrier_timeout(mut self, timeout: std::time::Duration) -> Self {
        self.options.barrier_timeout = Some(timeout);
        self
    }

    /// Runs the kernel, returning a structured [`SimError`] instead of
    /// panicking when a worker fails or the protocol aborts.
    pub fn try_run(
        &self,
        circuit: &Circuit,
        stimulus: &Stimulus,
        until: VirtualTime,
    ) -> Result<SimOutcome<V>, SimError> {
        let fabric = self.compiled.apply(Fabric::new(
            circuit,
            &self.partition,
            self.granularity,
            self.observe,
        ));
        let protocol = TwProtocol { saving: self.saving, cancellation: self.cancellation };
        fabric.run(stimulus, until, &self.probe, &protocol, &self.options)
    }
}

impl<V: LogicValue> Simulator<V> for ThreadedTimeWarpSimulator<V> {
    fn name(&self) -> String {
        format!("threaded-time-warp(P={})", self.partition.blocks())
    }

    fn run(&self, circuit: &Circuit, stimulus: &Stimulus, until: VirtualTime) -> SimOutcome<V> {
        self.try_run(circuit, stimulus, until).unwrap_or_else(|e| panic!("{e}"))
    }
}

/// A routed message: destination LP, payload.
#[derive(Clone)]
enum Wire<V> {
    Event(usize, Event<V>),
    Anti(usize, Event<V>),
}

/// The optimistic discipline: speculate freely between rounds; the
/// coordinator computes the exact GVT at the barrier.
struct TwProtocol {
    saving: StateSaving,
    cancellation: Cancellation,
}

/// Per-worker state: this worker's LPs plus accumulated work counters.
struct TwWorker<V> {
    lps: Vec<TwLp<V>>,
    total: TwWork,
    stats: SimStats,
    gvt_rounds: u64,
}

/// Round report: quiescence flags plus this worker's GVT component (its
/// LPs' next unprocessed work and the earliest message sent this round, so
/// the global minimum lower-bounds everything still in flight).
struct TwReport {
    sent: bool,
    done: bool,
    gvt: Option<VirtualTime>,
}

/// Per-batch work instants: rollbacks, state saves and a batched
/// gate-evaluation record for LP `lp`.
fn emit_work(ph: &mut ProbeHandle, p: usize, lp: usize, w: &TwWork) {
    if !ph.enabled() {
        return;
    }
    let t = ph.now_ns();
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

impl<V: LogicValue> SyncProtocol<V> for TwProtocol {
    type Msg = Wire<V>;
    type Worker = TwWorker<V>;
    type Report = TwReport;
    /// The GVT computed at the previous barrier (infinite before the first
    /// round and at quiescence); each worker fossil-collects behind it.
    type Verdict = VirtualTime;

    fn worker(
        &self,
        fabric: &Fabric<'_>,
        worker: usize,
        preloads: Vec<Vec<Event<V>>>,
    ) -> TwWorker<V> {
        let circuit = fabric.circuit();
        let topo = fabric.topo();
        let mut lps: Vec<TwLp<V>> = fabric
            .my_lps(worker)
            .map(|i| {
                TwLp::new(circuit, topo, i, self.saving, self.cancellation, fabric.observed_by(i))
            })
            .collect();
        for (slot, events) in preloads.into_iter().enumerate() {
            for e in events {
                lps[slot].preload(e);
            }
        }
        TwWorker { lps, total: TwWork::default(), stats: SimStats::default(), gvt_rounds: 0 }
    }

    fn first_verdict(&self) -> VirtualTime {
        VirtualTime::INFINITY
    }

    fn round(
        &self,
        fabric: &Fabric<'_>,
        state: &mut TwWorker<V>,
        verdict: &VirtualTime,
        cx: &mut RoundCx<'_, '_, Wire<V>>,
    ) -> TwReport {
        let circuit = fabric.circuit();
        let topo = fabric.topo();
        let me = cx.worker;
        let until = cx.until;
        state.gvt_rounds += 1;

        // Fossil-collect behind the previous round's exact GVT. Messages
        // sent last round were accounted in its GVT components, so the
        // verdict lower-bounds everything still in flight.
        if !verdict.is_infinite() {
            for lp in &mut state.lps {
                let _ = lp.fossil_collect(*verdict);
            }
        }

        // Group the inbox per LP for single-rollback application
        // (per-message rollback lets the anti-message echo grow
        // exponentially — see `TwLp::receive_batch`).
        let mut groups: BTreeMap<usize, Vec<TwIncoming<V>>> = BTreeMap::new();
        for wire in cx.inbox.drain(..) {
            match wire {
                Wire::Event(dst, e) => groups.entry(dst).or_default().push(TwIncoming::Event(e)),
                Wire::Anti(dst, e) => groups.entry(dst).or_default().push(TwIncoming::Anti(e)),
            }
        }

        let mut sent = false;
        let mut sent_min: Option<VirtualTime> = None;
        let stats = &mut state.stats;
        let total = &mut state.total;
        let processed_before = total.events_processed;
        let lps = &mut state.lps;
        let probe = &mut *cx.probe;
        let outbox = &mut *cx.outbox;
        let granularity = cx.granularity;

        // Routing shared by the receive and process paths.
        macro_rules! route {
            ($src:expr, $out:expr) => {
                match $out {
                    TwOutgoing::Event { dst, event } => {
                        stats.messages_sent += 1;
                        sent = true;
                        sent_min = Some(sent_min.map_or(event.time, |m| m.min(event.time)));
                        if probe.enabled() {
                            probe.emit(
                                probe.now_ns(),
                                event.time.ticks(),
                                me as u32,
                                $src as u32,
                                TraceKind::MessageSend,
                                dst as u64,
                            );
                        }
                        outbox.send(dst / granularity, Wire::Event(dst, event));
                    }
                    TwOutgoing::Anti { dst, event } => {
                        sent = true;
                        sent_min = Some(sent_min.map_or(event.time, |m| m.min(event.time)));
                        if probe.enabled() {
                            probe.emit(
                                probe.now_ns(),
                                event.time.ticks(),
                                me as u32,
                                $src as u32,
                                TraceKind::AntiMessage,
                                dst as u64,
                            );
                        }
                        outbox.send(dst / granularity, Wire::Anti(dst, event));
                    }
                }
            };
        }

        // Apply the inbox: stragglers and anti-messages trigger rollbacks.
        for (dst, batch) in groups {
            let mut work = TwWork::default();
            lps[dst % granularity].receive_batch(batch, &mut work, &mut |o| route!(dst, o));
            total.accumulate(&work);
            emit_work(probe, me, dst, &work);
        }

        // Optimistically process a bounded number of batches per LP.
        for (slot, lp) in lps.iter_mut().enumerate() {
            let lp_idx = me * granularity + slot;
            for _ in 0..BATCH_BUDGET {
                let mut work = TwWork::default();
                let block = fabric.compiled_block(lp_idx);
                let processed = lp.process_next(circuit, topo, until, block, &mut work, &mut |o| {
                    route!(lp_idx, o);
                });
                total.accumulate(&work);
                emit_work(probe, me, lp_idx, &work);
                if !processed {
                    break;
                }
            }
        }

        let local = lps.iter().filter_map(TwLp::gvt_component).min();
        cx.charge(total.events_processed - processed_before, 0, 0);
        if let Some(t) = local {
            cx.note_progress(me * granularity, t);
        }
        TwReport {
            sent,
            done: lps.iter().all(|lp| lp.done(until)) && !sent,
            gvt: match (local, sent_min) {
                (Some(a), Some(b)) => Some(a.min(b)),
                (a, b) => a.or(b),
            },
        }
    }

    fn decide(
        &self,
        _fabric: &Fabric<'_>,
        reports: &mut [Option<TwReport>],
        cx: &mut DecideCx<'_>,
    ) -> Decision<VirtualTime> {
        let done = reports.iter().flatten().all(|r| r.done);
        let sent_any = reports.iter().flatten().any(|r| r.sent);
        let gvt = reports.iter().flatten().filter_map(|r| r.gvt).min();
        if let Some(g) = gvt {
            // Nothing below GVT can roll back: it is the commit frontier a
            // budget-truncated run may claim. The fabric also drops the
            // speculative waveform tail at/past it on truncation.
            cx.note_frontier(g);
        }
        if cx.probe.enabled() {
            let g = gvt.map_or(0, VirtualTime::ticks);
            let t = cx.probe.now_ns();
            cx.probe.emit(t, g, 0, NO_LP, TraceKind::GvtAdvance, g);
        }
        if done && !sent_any {
            Decision::Stop
        } else {
            Decision::Continue(gvt.unwrap_or(VirtualTime::INFINITY))
        }
    }

    fn finish(
        &self,
        fabric: &Fabric<'_>,
        _worker: usize,
        mut state: TwWorker<V>,
    ) -> WorkerOutput<V> {
        let mut owned_values = Vec::new();
        let mut waveforms = BTreeMap::new();
        for lp in &mut state.lps {
            owned_values.extend(lp.owned_values(fabric.topo()));
            waveforms.extend(lp.take_waveforms());
        }
        let mut stats = state.stats;
        state.total.write_stats(&mut stats);
        stats.gvt_rounds = state.gvt_rounds;
        WorkerOutput { owned_values, waveforms, stats }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use parsim_core::SequentialSimulator;
    use parsim_logic::{Bit, Logic4};
    use parsim_netlist::{bench, generate, DelayModel};
    use parsim_partition::{FiducciaMattheyses, GateWeights, Partitioner, RoundRobinPartitioner};

    fn check_equivalent<V: LogicValue>(
        sim: &ThreadedTimeWarpSimulator<V>,
        c: &Circuit,
        stim: &Stimulus,
        until: u64,
    ) {
        let tw = sim.clone().with_observe(Observe::AllNets).run(c, stim, VirtualTime::new(until));
        let seq = SequentialSimulator::<V>::new().with_observe(Observe::AllNets).run(
            c,
            stim,
            VirtualTime::new(until),
        );
        if let Some(d) = tw.divergence_from(&seq) {
            panic!("{} diverged on {}: {d}", sim.name(), c.name());
        }
    }

    fn partition(c: &Circuit, p: usize) -> Partition {
        FiducciaMattheyses::default().partition(c, p, &GateWeights::uniform(c.len()))
    }

    #[test]
    fn matches_sequential_on_combinational() {
        let c = bench::c17();
        check_equivalent(
            &ThreadedTimeWarpSimulator::<Bit>::new(partition(&c, 3)),
            &c,
            &Stimulus::random(2, 8),
            200,
        );
    }

    #[test]
    fn compiled_execution_matches_sequential() {
        // Compiled bytecode under genuine rollback pressure, both saving
        // disciplines: committed results must stay bit-identical to the
        // sequential reference.
        let c = generate::random_dag(&generate::RandomDagConfig {
            gates: 200,
            seq_fraction: 0.15,
            delays: DelayModel::Uniform { min: 1, max: 6, seed: 3 },
            seed: 3,
            ..Default::default()
        });
        let stim = Stimulus::random(3, 10).with_clock(6);
        for saving in [StateSaving::Incremental, StateSaving::Copy] {
            check_equivalent(
                &ThreadedTimeWarpSimulator::<Logic4>::new(partition(&c, 3))
                    .with_state_saving(saving)
                    .with_compiled(),
                &c,
                &stim,
                250,
            );
        }
    }

    #[test]
    fn matches_sequential_on_sequential_circuits() {
        let c = generate::lfsr(8, DelayModel::Unit);
        check_equivalent(
            &ThreadedTimeWarpSimulator::<Bit>::new(partition(&c, 4)),
            &c,
            &Stimulus::quiet(1000).with_clock(5),
            250,
        );
    }

    #[test]
    fn configuration_corners_match_sequential() {
        let c = generate::random_dag(&generate::RandomDagConfig {
            gates: 150,
            seq_fraction: 0.1,
            delays: DelayModel::Uniform { min: 1, max: 8, seed: 3 },
            seed: 3,
            ..Default::default()
        });
        let stim = Stimulus::random(3, 10).with_clock(6);
        for saving in [StateSaving::Copy, StateSaving::Incremental] {
            for cancellation in [Cancellation::Aggressive, Cancellation::Lazy] {
                let sim = ThreadedTimeWarpSimulator::<Logic4>::new(partition(&c, 4))
                    .with_state_saving(saving)
                    .with_cancellation(cancellation);
                check_equivalent(&sim, &c, &stim, 200);
            }
        }
    }

    #[test]
    fn scattered_partition_still_correct() {
        // Round-robin maximizes cross-thread traffic (and rollbacks).
        let c = generate::random_dag(&generate::RandomDagConfig {
            gates: 250,
            delays: DelayModel::Uniform { min: 1, max: 15, seed: 7 },
            seed: 7,
            ..Default::default()
        });
        let part = RoundRobinPartitioner.partition(&c, 6, &GateWeights::uniform(c.len()));
        check_equivalent(
            &ThreadedTimeWarpSimulator::<Bit>::new(part),
            &c,
            &Stimulus::random(7, 12),
            400,
        );
    }
}
