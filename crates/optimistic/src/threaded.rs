//! The Time Warp protocol on the shared fabric, and its threaded kernel.

use std::collections::BTreeMap;

use parsim_event::{Event, VirtualTime};
use parsim_logic::LogicValue;
use parsim_runtime::{
    DecideCx, Decision, Fabric, FabricKernel, RoundCx, SyncProtocol, Threads, WorkerOutput,
};
use parsim_trace::{ProbeHandle, TraceKind, NO_LP};

use crate::lp::{emit_send, emit_work, TwLp, TwMsg, TwWork, TwWorker};
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
///
/// The family settings come from [`TimeWarpSettings`](crate::TimeWarpSettings).
/// A probe sees rollbacks (`arg` = events undone), state saves, batched
/// gate evaluations, event/anti-message sends (`lp` = source LP, `arg` =
/// destination LP) and one `GvtAdvance` per round (processor 0).
///
/// Every LP evaluates through its compiled bytecode (state saving and
/// rollback are untouched by it), so there is no evaluator to choose:
///
/// ```compile_fail,E0599
/// # let k: parsim_optimistic::ThreadedTimeWarpSimulator<parsim_logic::Bit> = todo!();
/// k.with_compiled();
/// ```
pub type ThreadedTimeWarpSimulator<V> = FabricKernel<TwProtocol, Threads, V>;

/// The optimistic discipline: speculate freely between rounds; the
/// coordinator computes the exact GVT at the barrier.
///
/// Runs on the threaded driver only: stepping Time Warp in the modeled
/// driver's rounds would change which rollbacks happen, so its modeled
/// kernel is the clock-ordered [`TimeWarpSimulator`](crate::TimeWarpSimulator).
#[derive(Debug, Clone, Copy)]
pub struct TwProtocol {
    pub(crate) saving: StateSaving,
    pub(crate) cancellation: Cancellation,
    /// LPs per partition block.
    pub(crate) granularity: usize,
}

impl Default for TwProtocol {
    fn default() -> Self {
        TwProtocol {
            saving: StateSaving::Incremental,
            cancellation: Cancellation::Lazy,
            granularity: 1,
        }
    }
}

/// Round report: quiescence flags plus this worker's GVT component (its
/// LPs' next unprocessed work and the earliest message sent this round, so
/// the global minimum lower-bounds everything still in flight).
pub struct TwReport {
    sent: bool,
    done: bool,
    gvt: Option<VirtualTime>,
}

impl<V: LogicValue> SyncProtocol<V> for TwProtocol {
    /// Destination LP, message.
    type Msg = (usize, TwMsg<V>);
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
        TwWorker::new(fabric, worker, preloads, self.saving, self.cancellation)
    }

    fn first_verdict(&self) -> VirtualTime {
        VirtualTime::INFINITY
    }

    fn round(
        &self,
        fabric: &Fabric<'_>,
        state: &mut TwWorker<V>,
        verdict: &VirtualTime,
        cx: &mut RoundCx<'_, '_, (usize, TwMsg<V>)>,
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
        let mut groups: BTreeMap<usize, Vec<TwMsg<V>>> = BTreeMap::new();
        for (dst, msg) in cx.inbox.drain(..) {
            groups.entry(dst).or_default().push(msg);
        }

        let mut sent = false;
        let mut sent_min: Option<VirtualTime> = None;
        let stats = &mut state.stats;
        let total = &mut state.total;
        let processed_before = total.events_processed;
        let lps = &mut state.lps;
        let probe = &mut *cx.probe;
        let outbox = &mut *cx.outbox;

        // Routing shared by the receive and process paths.
        macro_rules! route {
            ($src:expr, $dst:expr, $msg:expr) => {{
                let msg = $msg;
                if let TwMsg::Event(_) = msg {
                    stats.messages_sent += 1;
                }
                sent = true;
                sent_min = Some(sent_min.map_or(msg.time(), |m| m.min(msg.time())));
                emit_send(probe, ProbeHandle::now_ns, me, $src, $dst, &msg);
                outbox.send(fabric.worker_of($dst), ($dst, msg));
            }};
        }

        // Apply the inbox: stragglers and anti-messages trigger rollbacks.
        for (dst, batch) in groups {
            let mut work = TwWork::default();
            lps[fabric.slot_of(dst)]
                .receive_batch(batch, &mut work, &mut |to, m| route!(dst, to, m));
            total.accumulate(&work);
            emit_work(probe, ProbeHandle::now_ns, me, dst, &work);
        }

        // Optimistically process a bounded number of batches per LP.
        for lp in lps.iter_mut() {
            let lp_idx = lp.index;
            for _ in 0..BATCH_BUDGET {
                let mut work = TwWork::default();
                let block = fabric.compiled_block(lp_idx);
                let processed =
                    lp.process_next(circuit, topo, until, block, &mut work, &mut |to, m| {
                        route!(lp_idx, to, m);
                    });
                total.accumulate(&work);
                emit_work(probe, ProbeHandle::now_ns, me, lp_idx, &work);
                if !processed {
                    break;
                }
            }
        }

        let local = lps.iter().filter_map(TwLp::next_time).min();
        cx.charge(total.events_processed - processed_before, 0, 0);
        if let Some(t) = local {
            cx.note_progress(me * cx.granularity, t);
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

    fn finish(&self, fabric: &Fabric<'_>, _worker: usize, state: TwWorker<V>) -> WorkerOutput<V> {
        state.finish(fabric)
    }

    fn granularity(&self) -> usize {
        self.granularity
    }

    fn label(&self, _modeled: bool) -> &'static str {
        "threaded-time-warp"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::TimeWarpSettings;
    use parsim_core::{Observe, SequentialSimulator, Simulator, Stimulus};
    use parsim_logic::{Bit, Logic4};
    use parsim_netlist::{bench, generate, Circuit, DelayModel};
    use parsim_partition::{
        FiducciaMattheyses, GateWeights, Partition, Partitioner, RoundRobinPartitioner,
    };

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
        // Bytecode under genuine rollback pressure, both saving
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
                    .with_state_saving(saving),
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
