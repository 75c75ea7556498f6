//! The synchronous protocol, and its kernel on the fabric's threads.

use parsim_core::SimStats;
use parsim_event::{BucketQueue, Event, EventQueue, VirtualTime};
use parsim_logic::LogicValue;
use parsim_netlist::{Delay, GateId};
use parsim_runtime::{
    DecideCx, Decision, Fabric, FabricKernel, LpCore, RoundCx, SyncProtocol, Threads, WorkerOutput,
};
use parsim_trace::TraceKind;

/// The synchronous kernel on real threads.
///
/// One worker thread per partition block, one LP per worker, driven by the
/// shared [`Fabric`]. Each round the workers process every local event at
/// the globally agreed step time, exchange boundary events through the
/// lock-free SPSC-ring mailbox mesh (batched by the `Outbox`, one ring
/// per worker pair), and report the earliest pending timestamp (local
/// queue head, or the earliest event sent this round — so in-flight
/// messages are covered); the coordinator's minimum is the next step time.
/// Logical results are bit-identical to
/// [`SyncSimulator`](crate::SyncSimulator) and the sequential reference.
///
/// The synchronous family has no settings of its own (one LP per block),
/// and every LP evaluates through its compiled bytecode, so there is no
/// evaluator to choose either:
///
/// ```compile_fail,E0599
/// # let k: parsim_sync::ThreadedSyncSimulator<parsim_logic::Bit> = todo!();
/// k.with_granularity(2);
/// ```
/// ```compile_fail,E0599
/// # let k: parsim_sync::ThreadedSyncSimulator<parsim_logic::Bit> = todo!();
/// k.with_compiled();
/// ```
pub type ThreadedSyncSimulator<V> = FabricKernel<BarrierProtocol, Threads, V>;

/// The synchronous discipline: every worker steps at the same global time.
#[derive(Debug, Clone, Copy, Default)]
pub struct BarrierProtocol;

/// Per-worker state: one LP (= partition block) with a private event queue.
pub struct SyncWorker<V> {
    owned: Vec<GateId>,
    core: LpCore<V>,
    queue: BucketQueue<V>,
    first: bool,
    stats: SimStats,
}

impl<V: LogicValue> SyncProtocol<V> for BarrierProtocol {
    /// The round barrier *is* the discipline, so the modeled machine
    /// charges it and the deliveries it hides.
    const SUPERSTEP: bool = true;

    type Msg = Event<V>;
    type Worker = SyncWorker<V>;
    /// Earliest pending timestamp: min(queue head, earliest send this round).
    type Report = Option<VirtualTime>;
    /// The globally agreed step time of the next round.
    type Verdict = VirtualTime;

    fn worker(
        &self,
        fabric: &Fabric<'_>,
        worker: usize,
        preloads: Vec<Vec<Event<V>>>,
    ) -> SyncWorker<V> {
        let circuit = fabric.circuit();
        let owned = fabric.topo().lps()[worker].gates.clone();
        let core = LpCore::new(circuit, fabric.observed_by(worker));
        let mut queue = BucketQueue::new();
        let mut stats = SimStats::default();
        for e in preloads.into_iter().flatten() {
            // A stimulus or constant event is scheduled once, by the
            // worker that owns its net, however many readers hold a copy.
            stats.events_scheduled += u64::from(fabric.topo().lp_of(e.net) == worker);
            queue.push(e);
        }
        SyncWorker { owned, core, queue, first: true, stats }
    }

    fn first_verdict(&self) -> VirtualTime {
        VirtualTime::ZERO
    }

    fn round(
        &self,
        fabric: &Fabric<'_>,
        state: &mut SyncWorker<V>,
        verdict: &VirtualTime,
        cx: &mut RoundCx<'_, '_, Event<V>>,
    ) -> Option<VirtualTime> {
        let circuit = fabric.circuit();
        let topo = fabric.topo();
        let me = cx.worker;
        for e in cx.inbox.drain(..) {
            state.queue.push(e);
        }
        // The first round always runs at t = 0 (initial evaluation), even
        // when the earliest queued event is later; every worker takes this
        // branch in the same round, keeping the rounds aligned.
        let now = if state.first { VirtualTime::ZERO } else { *verdict };

        state.core.begin_batch();
        cx.note_progress(me, now);

        // Phase 1: apply local events at `now`.
        let mut popped = 0u64;
        while state.queue.peek_time() == Some(now) {
            let e = state.queue.pop().expect("peeked");
            state.stats.events_processed += 1;
            popped += 1;
            if cx.probe.enabled() {
                let t = cx.now();
                cx.probe.emit(
                    t,
                    now.ticks(),
                    me as u32,
                    e.net.index() as u32,
                    TraceKind::Dequeue,
                    state.queue.len() as u64,
                );
            }
            if state.core.apply_event(now, &e).is_some() {
                state.core.mark_fanout(circuit, topo, me, e.net);
            }
        }
        if state.first {
            state.core.mark_owned_non_source(circuit, &state.owned);
            state.first = false;
        }

        // Phase 2: evaluate the dirty batch through the LP's bytecode (one
        // dispatch per same-kind run) and distribute: local queue for the
        // driver's own block, mailbox sends for remote destinations. The
        // queue orders by (time, net), so emission order is immaterial.
        let mut sent_min: Option<VirtualTime> = None;
        let dirty = state.core.take_dirty_sorted();
        let scheduled_before = state.stats.events_scheduled;
        state.stats.gate_evaluations += dirty.len() as u64;
        if cx.probe.enabled() && !dirty.is_empty() {
            let t = cx.now();
            let batch = dirty.len() as u64;
            cx.probe.emit(t, now.ticks(), me as u32, me as u32, TraceKind::GateEval, batch);
        }
        let SyncWorker { core, queue, stats, .. } = state;
        core.evaluate_batch(fabric.compiled_block(me), &dirty, &mut |id, v, delay| {
            let e = Event::new(now + Delay::new(u64::from(delay)), id, v);
            stats.events_scheduled += 1;
            let mut to_self = false;
            for &dst in topo.destinations(e.net) {
                if dst == me {
                    to_self = true;
                    queue.push(e);
                } else {
                    stats.messages_sent += 1;
                    if cx.probe.enabled() {
                        let t = cx.now();
                        let net = e.net.index() as u32;
                        let arg = dst as u64;
                        cx.probe.emit(t, now.ticks(), me as u32, net, TraceKind::MessageSend, arg);
                    }
                    sent_min = Some(sent_min.map_or(e.time, |m| m.min(e.time)));
                    cx.send_lp(dst, e);
                }
            }
            // A driver whose own block is not among the destinations still
            // tracks its output value locally.
            if !to_self {
                queue.push(e);
            }
        });
        // Each scheduled event costs one local enqueue (the driver's own
        // block always keeps a copy); remote copies were paid as sends.
        cx.charge(popped, dirty.len() as u64, state.stats.events_scheduled - scheduled_before);
        state.core.recycle_dirty(dirty);

        match (state.queue.peek_time(), sent_min) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        }
    }

    fn decide(
        &self,
        _fabric: &Fabric<'_>,
        reports: &mut [Option<Option<VirtualTime>>],
        cx: &mut DecideCx<'_>,
    ) -> Decision<VirtualTime> {
        let next = reports.iter().filter_map(|r| r.flatten()).min();
        match next {
            Some(t) if t <= cx.until => {
                // Nothing is pending below the next step time, so every
                // earlier event is final — the budget-truncation frontier.
                cx.note_frontier(t);
                Decision::Continue(t)
            }
            _ => Decision::Stop,
        }
    }

    fn finish(
        &self,
        _fabric: &Fabric<'_>,
        _worker: usize,
        mut state: SyncWorker<V>,
    ) -> WorkerOutput<V> {
        WorkerOutput {
            owned_values: state.core.owned_values(&state.owned),
            waveforms: state.core.take_waveforms(),
            stats: state.stats,
        }
    }

    fn label(&self, modeled: bool) -> &'static str {
        if modeled {
            "synchronous"
        } else {
            "threaded-synchronous"
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use parsim_core::{Observe, SequentialSimulator, Simulator, Stimulus};
    use parsim_logic::{Bit, Logic4};
    use parsim_machine::MachineConfig;
    use parsim_netlist::{bench, generate, Circuit, DelayModel};
    use parsim_partition::{FiducciaMattheyses, GateWeights, Partitioner};
    use parsim_runtime::CacheOutcome;

    fn check_equivalent<V: LogicValue>(c: &Circuit, stim: &Stimulus, until: u64, p: usize) {
        let part = FiducciaMattheyses::default().partition(c, p, &GateWeights::uniform(c.len()));
        let threaded = ThreadedSyncSimulator::<V>::new(part).with_observe(Observe::AllNets).run(
            c,
            stim,
            VirtualTime::new(until),
        );
        let seq = SequentialSimulator::<V>::new().with_observe(Observe::AllNets).run(
            c,
            stim,
            VirtualTime::new(until),
        );
        if let Some(d) = threaded.divergence_from(&seq) {
            panic!("threaded synchronous kernel diverged on {}: {d}", c.name());
        }
    }

    #[test]
    fn matches_sequential_on_combinational() {
        check_equivalent::<Bit>(&bench::c17(), &Stimulus::random(1, 8), 200, 3);
        let c = generate::ripple_adder(12, DelayModel::PerKind);
        check_equivalent::<Logic4>(&c, &Stimulus::counting(30), 600, 4);
    }

    #[test]
    fn matches_sequential_on_sequential_circuits() {
        let c = generate::lfsr(8, DelayModel::Unit);
        check_equivalent::<Bit>(&c, &Stimulus::quiet(1000).with_clock(5), 400, 4);
    }

    #[test]
    fn matches_sequential_on_random_dags() {
        for seed in 0..3 {
            let c = generate::random_dag(&generate::RandomDagConfig {
                gates: 200,
                seq_fraction: 0.1,
                delays: DelayModel::Uniform { min: 1, max: 9, seed },
                seed,
                ..Default::default()
            });
            check_equivalent::<Bit>(&c, &Stimulus::random(seed, 12).with_clock(7), 300, 4);
        }
    }

    #[test]
    fn single_worker_degenerates_to_sequential() {
        let c = bench::c17();
        check_equivalent::<Bit>(&c, &Stimulus::random(2, 5), 150, 1);
    }

    #[test]
    fn running_on_the_built_fabric_is_try_run() {
        let dir = std::env::temp_dir().join(format!("parsim-sync-fabric-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let c = generate::ripple_adder(8, DelayModel::PerKind);
        let part = FiducciaMattheyses::default().partition(&c, 3, &GateWeights::uniform(c.len()));
        let (stim, until) = (Stimulus::random(3, 7), VirtualTime::new(300));
        let kernel = ThreadedSyncSimulator::<Logic4>::new(part)
            .with_observe(Observe::AllNets)
            .with_compiled_cache(&dir);
        // Each fabric loads through the store once: the first compiles and
        // stores, the second over the same store finds the artifact.
        let cold = kernel.fabric(&c);
        assert_eq!(cold.cache_outcome(), CacheOutcome::MissCompiled);
        let warm = kernel.fabric(&c);
        assert_eq!(warm.cache_outcome(), CacheOutcome::Hit);
        let direct = kernel.try_run(&c, &stim, until).expect("a healthy run");
        for fabric in [&cold, &warm] {
            assert_eq!(kernel.run_on(fabric, &stim, until).expect("a healthy run"), direct);
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn compiled_execution_is_bit_identical() {
        // Both drivers evaluate every dirty batch through the LPs'
        // bytecode: on multi-delay Logic4 DAGs they commit the sequential
        // history and evaluate exactly the same batches.
        for seed in 0..2 {
            let c = generate::random_dag(&generate::RandomDagConfig {
                gates: 250,
                seq_fraction: 0.15,
                delays: DelayModel::Uniform { min: 1, max: 6, seed },
                seed,
                ..Default::default()
            });
            let stim = Stimulus::random(seed, 10).with_clock(6);
            let part =
                FiducciaMattheyses::default().partition(&c, 3, &GateWeights::uniform(c.len()));
            let until = VirtualTime::new(250);
            let seq = SequentialSimulator::<Logic4>::new()
                .with_observe(Observe::AllNets)
                .run(&c, &stim, until);
            let threaded = ThreadedSyncSimulator::<Logic4>::new(part.clone())
                .with_observe(Observe::AllNets)
                .run(&c, &stim, until);
            let modeled =
                crate::SyncSimulator::<Logic4>::new(part, MachineConfig::shared_memory(3))
                    .with_observe(Observe::AllNets)
                    .run(&c, &stim, until);
            for (driver, out) in [("threaded", &threaded), ("modeled", &modeled)] {
                if let Some(d) = out.divergence_from(&seq) {
                    panic!("{driver} sync kernel diverged (seed {seed}): {d}");
                }
            }
            assert_eq!(threaded.stats.gate_evaluations, modeled.stats.gate_evaluations);
        }
    }
}
