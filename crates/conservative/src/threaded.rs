//! The conservative protocol, and its kernel on the fabric's threads.

use parsim_core::SimStats;
use parsim_event::{Event, VirtualTime};
use parsim_logic::LogicValue;
use parsim_netlist::Delay;
use parsim_runtime::{
    DecideCx, Decision, Fabric, FabricKernel, RoundCx, SyncProtocol, Threads, WorkerOutput,
};
use parsim_trace::{TraceKind, NO_LP};

use crate::lp_state::{LpState, Outgoing};
use crate::DeadlockStrategy;

/// The Chandy–Misra–Bryant kernel on real threads.
///
/// One worker per partition block, driven by the shared [`Fabric`]; each
/// worker owns its LPs' full state and exchanges event/null messages
/// through the lock-free SPSC-ring mailbox mesh (batched by the
/// `Outbox`). Worker activations run concurrently
/// between rounds; the fabric's round structure provides the global
/// quiescence test (termination and, in
/// [`DeadlockStrategy::DetectAndRecover`] mode, deadlock detection — the
/// circulating-marker outcome computed centrally). The family settings
/// come from [`ConservativeSettings`](crate::ConservativeSettings).
///
/// Logical results are bit-identical to the modeled kernel and the
/// sequential reference. Every LP evaluates through its compiled bytecode
/// (in memory, or from
/// [`with_compiled_cache`](parsim_runtime::FabricKernel::with_compiled_cache)),
/// so there is no evaluator to choose:
///
/// ```compile_fail,E0599
/// # let k: parsim_conservative::ThreadedConservativeSimulator<parsim_logic::Bit> = todo!();
/// k.with_compiled();
/// ```
pub type ThreadedConservativeSimulator<V> = FabricKernel<CmbProtocol, Threads, V>;

/// A routed message: destination LP, source LP, payload.
#[derive(Clone)]
pub enum Wire<V> {
    Event(usize, Event<V>),
    Null { dst: usize, src: usize, time: VirtualTime },
}

impl<V> Wire<V> {
    fn dst(&self) -> usize {
        match *self {
            Wire::Event(dst, _) | Wire::Null { dst, .. } => dst,
        }
    }
}

/// The conservative discipline: channel clocks advance via null messages
/// or central deadlock recovery; the coordinator only tests quiescence.
///
/// On the modeled machine its rounds are not supersteps (the default
/// [`SyncProtocol::SUPERSTEP`]): LPs run asynchronously, a message is taken
/// when it has arrived, and the only global agreement ever paid for is the
/// circulating marker of a deadlock recovery.
#[derive(Debug, Clone, Copy)]
pub struct CmbProtocol {
    pub(crate) strategy: DeadlockStrategy,
    /// LPs per partition block (experiment E7).
    pub(crate) granularity: usize,
}

impl Default for CmbProtocol {
    fn default() -> Self {
        CmbProtocol { strategy: DeadlockStrategy::NullMessages, granularity: 1 }
    }
}

/// Per-worker state: this worker's LPs (ascending slot order).
pub struct CmbWorker<V> {
    lps: Vec<LpState<V>>,
    /// Per LP slot, the inbox indices addressed to it this round.
    mail: Vec<Vec<u32>>,
    stats: SimStats,
}

/// Round report: did this worker send or work, is it drained, and where is
/// its earliest pending event (for deadlock recovery).
pub struct CmbReport {
    sent: bool,
    worked: bool,
    done: bool,
    head: Option<VirtualTime>,
    /// This worker's commit frontier: min over its LPs' frontiers
    /// (infinite for a worker with no LPs).
    floor: VirtualTime,
}

/// Coordinator verdict for the next round.
#[derive(Clone)]
pub enum CmbVerdict {
    /// Keep simulating.
    Run,
    /// Deadlock was detected: advance every channel clock to this time
    /// before draining the inbox.
    Recover(VirtualTime),
}

impl<V: LogicValue> SyncProtocol<V> for CmbProtocol {
    type Msg = Wire<V>;
    type Worker = CmbWorker<V>;
    type Report = CmbReport;
    type Verdict = CmbVerdict;

    fn worker(
        &self,
        fabric: &Fabric<'_>,
        worker: usize,
        preloads: Vec<Vec<Event<V>>>,
    ) -> CmbWorker<V> {
        let circuit = fabric.circuit();
        let topo = fabric.topo();
        let mut lps: Vec<LpState<V>> = fabric
            .my_lps(worker)
            .map(|i| LpState::new(circuit, topo, i, fabric.observed_by(i)))
            .collect();
        for (slot, events) in preloads.into_iter().enumerate() {
            for e in events {
                lps[slot].preload(e);
            }
        }
        let mail = vec![Vec::new(); lps.len()];
        CmbWorker { lps, mail, stats: SimStats::default() }
    }

    fn first_verdict(&self) -> CmbVerdict {
        CmbVerdict::Run
    }

    fn round(
        &self,
        fabric: &Fabric<'_>,
        state: &mut CmbWorker<V>,
        verdict: &CmbVerdict,
        cx: &mut RoundCx<'_, '_, Wire<V>>,
    ) -> CmbReport {
        let circuit = fabric.circuit();
        let topo = fabric.topo();
        let me = cx.worker;
        let send_nulls = self.strategy == DeadlockStrategy::NullMessages;

        // Act on a recovery verdict from the previous round (before the
        // inbox: recovery happens at global quiescence, so it is empty
        // anyway).
        if let CmbVerdict::Recover(t) = *verdict {
            for lp in &mut state.lps {
                lp.recover_to(t);
            }
            state.stats.gvt_rounds += 1;
            if cx.probe.enabled() {
                let now = cx.now();
                cx.probe.emit(now, t.ticks(), me as u32, NO_LP, TraceKind::GvtAdvance, t.ticks());
            }
        }

        // Sort the inbox (messages sent in the previous round) by
        // destination LP, arrival order kept within each.
        let CmbWorker { lps, mail, stats } = state;
        mail.iter_mut().for_each(Vec::clear);
        let inbox = std::mem::take(cx.inbox);
        for (i, wire) in inbox.iter().enumerate() {
            mail[fabric.slot_of(wire.dst())].push(i as u32);
        }

        // Activate every owned LP. Each takes its own messages off the wire
        // immediately before it runs, not the whole inbox up front: on the
        // modeled machine a receive waits for its message, so what the
        // processor has already waited for when an LP sends is part of the
        // cost model (E7 sweeps exactly this).
        let mut sent = false;
        let mut worked = false;
        for (lp, mail) in lps.iter_mut().zip(mail.iter()) {
            let lp_idx = lp.index;
            for &i in mail {
                cx.receive(i as usize);
                match inbox[i as usize] {
                    Wire::Event(_, e) => lp.receive_event(e),
                    Wire::Null { src, time, .. } => lp.receive_null(topo, src, time),
                }
            }
            let block = fabric.compiled_block(lp_idx);
            let work = lp.activate(circuit, topo, cx.until, send_nulls, block, &mut |out| {
                sent = true;
                let (kind, dst, vt, wire) = match out {
                    Outgoing::Event { dst, event } => {
                        stats.messages_sent += 1;
                        (TraceKind::MessageSend, dst, event.time, Wire::Event(dst, event))
                    }
                    Outgoing::Null { dst, time } => {
                        stats.null_messages += 1;
                        (TraceKind::NullMessage, dst, time, Wire::Null { dst, src: lp_idx, time })
                    }
                };
                if cx.probe.enabled() {
                    let t = cx.now();
                    cx.probe.emit(t, vt.ticks(), me as u32, lp_idx as u32, kind, dst as u64);
                }
                cx.send_lp(dst, wire);
            });
            stats.events_processed += work.events_popped;
            stats.gate_evaluations += work.evaluations;
            stats.events_scheduled += work.events_scheduled;
            cx.charge(work.events_popped, work.evaluations, work.events_scheduled);
            if let Some(t) = lp.head_time() {
                cx.note_progress(lp_idx, t);
            }
            if cx.probe.enabled() && work.evaluations > 0 {
                let t = cx.now();
                cx.probe.emit(
                    t,
                    0,
                    me as u32,
                    lp_idx as u32,
                    TraceKind::GateEval,
                    work.evaluations,
                );
            }
            worked |= work.evaluations > 0 || work.events_popped > 0;
        }
        // Hand the buffer back for the next drain (the fabric clears it).
        *cx.inbox = inbox;

        CmbReport {
            sent,
            worked,
            done: state.lps.iter().all(|lp| lp.done(cx.until)),
            head: state.lps.iter().filter_map(LpState::head_time).min(),
            floor: state.lps.iter().map(LpState::frontier).min().unwrap_or(VirtualTime::INFINITY),
        }
    }

    fn decide(
        &self,
        _fabric: &Fabric<'_>,
        reports: &mut [Option<CmbReport>],
        cx: &mut DecideCx<'_>,
    ) -> Decision<CmbVerdict> {
        // The global commit frontier — no LP will ever process below the
        // minimum of the per-worker floors (stragglers are rejected), so a
        // budget-truncated run can safely claim everything before it.
        if let Some(floor) = reports.iter().flatten().map(|r| r.floor).min() {
            cx.note_frontier(floor);
        }
        let sent_any = reports.iter().flatten().any(|r| r.sent);
        let worked_any = reports.iter().flatten().any(|r| r.worked);
        let done = reports.iter().flatten().all(|r| r.done);
        if done && !sent_any {
            Decision::Stop
        } else if !worked_any && !sent_any {
            match self.strategy {
                DeadlockStrategy::NullMessages => {
                    // The null-message protocol cannot deadlock with
                    // lookahead ≥ 1; if we ever get here it is a bug. Abort
                    // releases the peers so the test fails instead of
                    // hanging at the barrier.
                    Decision::Abort(
                        "null-message protocol cannot deadlock with lookahead ≥ 1".into(),
                    )
                }
                DeadlockStrategy::DetectAndRecover => {
                    let m = reports.iter().flatten().filter_map(|r| r.head).min();
                    match m {
                        Some(m) if m <= cx.until => {
                            cx.charge_marker_round();
                            Decision::Continue(CmbVerdict::Recover(m + Delay::UNIT))
                        }
                        _ => Decision::Stop,
                    }
                }
            }
        } else {
            Decision::Continue(CmbVerdict::Run)
        }
    }

    fn finish(
        &self,
        fabric: &Fabric<'_>,
        _worker: usize,
        mut state: CmbWorker<V>,
    ) -> WorkerOutput<V> {
        let mut owned_values = Vec::new();
        let mut waveforms = std::collections::BTreeMap::new();
        for lp in &mut state.lps {
            owned_values.extend(lp.owned_values(fabric.topo()));
            waveforms.extend(lp.take_waveforms());
        }
        WorkerOutput { owned_values, waveforms, stats: state.stats }
    }

    fn granularity(&self) -> usize {
        self.granularity
    }

    fn label(&self, modeled: bool) -> &'static str {
        match (modeled, self.strategy) {
            (false, _) => "threaded-conservative",
            (true, DeadlockStrategy::NullMessages) => "conservative-null-msg",
            (true, DeadlockStrategy::DetectAndRecover) => "conservative-deadlock-recovery",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ConservativeSettings;
    use parsim_core::{Observe, SequentialSimulator, Simulator, Stimulus};
    use parsim_logic::{Bit, Logic4};
    use parsim_machine::MachineConfig;
    use parsim_netlist::{bench, generate, Circuit, DelayModel};
    use parsim_partition::{FiducciaMattheyses, GateWeights, Partitioner};

    fn check_equivalent<V: LogicValue>(
        c: &Circuit,
        stim: &Stimulus,
        until: u64,
        p: usize,
        strategy: DeadlockStrategy,
    ) {
        let part = FiducciaMattheyses::default().partition(c, p, &GateWeights::uniform(c.len()));
        let threaded = ThreadedConservativeSimulator::<V>::new(part)
            .with_strategy(strategy)
            .with_observe(Observe::AllNets)
            .run(c, stim, VirtualTime::new(until));
        let seq = SequentialSimulator::<V>::new().with_observe(Observe::AllNets).run(
            c,
            stim,
            VirtualTime::new(until),
        );
        if let Some(d) = threaded.divergence_from(&seq) {
            panic!("threaded conservative ({strategy:?}) diverged on {}: {d}", c.name());
        }
    }

    #[test]
    fn null_messages_match_sequential() {
        check_equivalent::<Bit>(
            &bench::c17(),
            &Stimulus::random(6, 8),
            200,
            3,
            DeadlockStrategy::NullMessages,
        );
        let c = generate::ring(10, DelayModel::Unit);
        check_equivalent::<Bit>(
            &c,
            &Stimulus::random(4, 14).with_clock(7),
            300,
            4,
            DeadlockStrategy::NullMessages,
        );
    }

    #[test]
    fn deadlock_recovery_matches_sequential() {
        let c = generate::lfsr(8, DelayModel::Unit);
        check_equivalent::<Bit>(
            &c,
            &Stimulus::quiet(1000).with_clock(5),
            250,
            4,
            DeadlockStrategy::DetectAndRecover,
        );
    }

    #[test]
    fn random_dags_match_sequential() {
        for seed in 0..3 {
            let c = generate::random_dag(&generate::RandomDagConfig {
                gates: 180,
                seq_fraction: 0.1,
                delays: DelayModel::Uniform { min: 1, max: 7, seed },
                seed,
                ..Default::default()
            });
            check_equivalent::<Logic4>(
                &c,
                &Stimulus::random(seed, 10).with_clock(6),
                250,
                4,
                DeadlockStrategy::NullMessages,
            );
        }
    }

    #[test]
    fn compiled_execution_is_bit_identical() {
        // Both drivers evaluate every dirty batch through the LPs'
        // bytecode: at granularity 2 they commit the sequential history and
        // evaluate exactly the same batches.
        let c = generate::random_dag(&generate::RandomDagConfig {
            gates: 220,
            seq_fraction: 0.15,
            delays: DelayModel::Uniform { min: 1, max: 6, seed: 11 },
            seed: 11,
            ..Default::default()
        });
        let stim = Stimulus::random(11, 10).with_clock(6);
        let part = FiducciaMattheyses::default().partition(&c, 3, &GateWeights::uniform(c.len()));
        let until = VirtualTime::new(250);
        let seq = SequentialSimulator::<Logic4>::new()
            .with_observe(Observe::AllNets)
            .run(&c, &stim, until);
        let threaded = ThreadedConservativeSimulator::<Logic4>::new(part.clone())
            .with_granularity(2)
            .with_observe(Observe::AllNets)
            .run(&c, &stim, until);
        let modeled =
            crate::ConservativeSimulator::<Logic4>::new(part, MachineConfig::shared_memory(3))
                .with_granularity(2)
                .with_observe(Observe::AllNets)
                .run(&c, &stim, until);
        for (driver, out) in [("threaded", &threaded), ("modeled", &modeled)] {
            if let Some(d) = out.divergence_from(&seq) {
                panic!("{driver} conservative kernel diverged: {d}");
            }
        }
        assert_eq!(threaded.stats.gate_evaluations, modeled.stats.gate_evaluations);
    }

    #[test]
    fn granularity_preserves_results() {
        let c = generate::mesh(8, 8, DelayModel::Unit);
        let stim = Stimulus::random(9, 18);
        let part = FiducciaMattheyses::default().partition(&c, 4, &GateWeights::uniform(c.len()));
        let base = SequentialSimulator::<Bit>::new().with_observe(Observe::AllNets).run(
            &c,
            &stim,
            VirtualTime::new(250),
        );
        let out = ThreadedConservativeSimulator::<Bit>::new(part)
            .with_granularity(4)
            .with_observe(Observe::AllNets)
            .run(&c, &stim, VirtualTime::new(250));
        assert_eq!(out.divergence_from(&base), None);
    }
}
