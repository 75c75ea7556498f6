//! Breathing Time Buckets — the §VI synchronous/optimistic hybrid — as one
//! protocol on both fabric drivers.

use std::collections::BTreeMap;

use parsim_event::{Event, VirtualTime};
use parsim_logic::LogicValue;
use parsim_runtime::{
    DecideCx, Decision, Fabric, FabricKernel, Machine, RoundCx, SyncProtocol, Threads, WorkerOutput,
};

use crate::lp::{TwLp, TwMsg, TwWork, TwWorker};
use crate::{Cancellation, StateSaving};

/// Batches each LP may process per breath.
const CYCLE_BUDGET: usize = 64;

/// Steinman's *Breathing Time Buckets* (SPEEDES), the §VI direction: "the
/// synchronous algorithm is being expanded to include many of the features
/// found in asynchronous algorithms, with an attempt to avoid the
/// performance instabilities found in the asynchronous algorithms."
///
/// One breath is two fabric rounds, each ending in the round barrier:
///
/// 1. *speculate*: LPs apply the last exchange's messages, then process
///    their pending events **optimistically** with every send *held*;
/// 2. the barrier's `decide` reduces the **event horizon** — the earliest
///    held send — and the **commit point**, the smaller of the horizon and
///    every LP's next unprocessed time;
/// 3. *exchange*: every LP rolls back its work at or beyond the horizon
///    *locally* (the cancelled messages were never released, so no
///    anti-messages cross LPs — the instability mechanism of Time Warp is
///    structurally absent), commits behind the commit point and releases
///    the sends of the batches it committed, and only those;
/// 4. the exchange's barrier delivers them before the next speculation,
///    never behind their receiver's LVT.
///
/// Risk-free optimism: the speculation is local, the commitment is global
/// and monotone. The one setting is the LP granularity
/// ([`BtbSettings`](crate::BtbSettings)); DESIGN.md, "Breathing time
/// buckets", has the measured alternatives. Results are bit-identical to
/// the sequential reference.
///
/// # Examples
///
/// ```
/// use parsim_core::{SequentialSimulator, Simulator, Stimulus};
/// use parsim_event::VirtualTime;
/// use parsim_logic::Bit;
/// use parsim_machine::MachineConfig;
/// use parsim_netlist::{generate, DelayModel};
/// use parsim_optimistic::BtbSimulator;
/// use parsim_partition::{ConePartitioner, GateWeights, Partitioner};
///
/// let c = generate::ripple_adder(8, DelayModel::Unit);
/// let part = ConePartitioner.partition(&c, 4, &GateWeights::uniform(c.len()));
/// let sim = BtbSimulator::<Bit>::new(part, MachineConfig::shared_memory(4));
/// let stim = Stimulus::random(5, 12);
/// let out = sim.run(&c, &stim, VirtualTime::new(300));
/// let oracle = SequentialSimulator::<Bit>::new().run(&c, &stim, VirtualTime::new(300));
/// assert_eq!(out.divergence_from(&oracle), None);
/// assert_eq!(out.stats.anti_messages, 0); // risk-free: nothing to cancel
/// ```
pub type BtbSimulator<V> = FabricKernel<BtbProtocol, Machine, V>;

/// Breathing time buckets on real threads: the protocol object of
/// [`BtbSimulator`] on the fabric's worker threads, mailbox mesh and round
/// barrier. Its rounds, messages, evaluations and rollbacks equal the
/// modeled kernel's.
pub type ThreadedBtbSimulator<V> = FabricKernel<BtbProtocol, Threads, V>;

/// The breathing discipline: speculate with held sends, agree on the event
/// horizon at the barrier, roll back past it, release what committed.
#[derive(Debug, Clone, Copy)]
pub struct BtbProtocol {
    /// LPs per partition block.
    pub(crate) granularity: usize,
}

impl Default for BtbProtocol {
    fn default() -> Self {
        BtbProtocol { granularity: 1 }
    }
}

/// What the barrier decided after a speculation round.
#[derive(Debug, Clone, Copy)]
pub struct Breath {
    /// The earliest send still held: every batch at or beyond it is rolled
    /// back.
    horizon: VirtualTime,
    /// Everything strictly below it is final, and its sends are released.
    commit: VirtualTime,
}

/// A speculation round's report: this worker's share of the breath.
pub struct BtbReport {
    /// The earliest send this worker holds (infinite: none).
    horizon: VirtualTime,
    /// The earliest unprocessed time of this worker's LPs.
    next: Option<VirtualTime>,
}

impl<V: LogicValue> SyncProtocol<V> for BtbProtocol {
    /// Both rounds of a breath end in a barrier: the one that computes the
    /// horizon and the one that completes the exchange.
    const SUPERSTEP: bool = true;

    /// Destination LP, message: always an event, because cancellations
    /// never leave the node.
    type Msg = (usize, TwMsg<V>);
    type Worker = TwWorker<V>;
    /// `None` from an exchange round.
    type Report = Option<BtbReport>;
    /// `None`: speculate. `Some`: roll back, commit and release.
    type Verdict = Option<Breath>;

    fn worker(
        &self,
        fabric: &Fabric<'_>,
        worker: usize,
        preloads: Vec<Vec<Event<V>>>,
    ) -> TwWorker<V> {
        TwWorker::new(fabric, worker, preloads, StateSaving::Incremental, Cancellation::Aggressive)
    }

    fn first_verdict(&self) -> Option<Breath> {
        None
    }

    fn round(
        &self,
        fabric: &Fabric<'_>,
        state: &mut TwWorker<V>,
        verdict: &Option<Breath>,
        cx: &mut RoundCx<'_, '_, (usize, TwMsg<V>)>,
    ) -> Option<BtbReport> {
        let TwWorker { lps, total, stats, gvt_rounds } = state;
        let mut round = TwWork::default();
        let report = match verdict {
            // Exchange: undo past the horizon (the cancelled sends were
            // never released, so nothing leaves the node), commit behind the
            // commit point and release the committed batches' sends.
            Some(breath) => {
                *gvt_rounds += 1;
                for lp in lps.iter_mut() {
                    lp.rollback_to_before(breath.horizon, &mut round, &mut |_, _| {});
                    for (dst, e) in lp.fossil_collect(breath.commit) {
                        stats.messages_sent += 1;
                        cx.send_lp(dst, (dst, TwMsg::Event(e)));
                    }
                }
                None
            }
            None => {
                // The exchange's releases. None lands behind its receiver's
                // LVT: the horizon covered it.
                let mut groups: BTreeMap<usize, Vec<TwMsg<V>>> = BTreeMap::new();
                for (dst, msg) in cx.inbox.drain(..) {
                    groups.entry(dst).or_default().push(msg);
                }
                for (dst, batch) in groups {
                    let mut work = TwWork::default();
                    lps[fabric.slot_of(dst)].receive_batch(batch, &mut work, &mut |_, _| {});
                    debug_assert_eq!(work.rollbacks, 0, "a released send rolled back its receiver");
                }
                // Speculate with held sends. This worker's horizon estimate
                // is its earliest held send; the breath's horizon can only be
                // lower, so a batch at or beyond the estimate is certain to
                // roll back and is not processed — the "breathing":
                // processing stops at the horizon, not at the budget.
                let mut horizon = lps
                    .iter()
                    .filter_map(TwLp::earliest_send)
                    .min()
                    .unwrap_or(VirtualTime::INFINITY);
                let (circuit, topo, until) = (fabric.circuit(), fabric.topo(), cx.until);
                for lp in lps.iter_mut() {
                    let block = fabric.compiled_block(lp.index);
                    for _ in 0..CYCLE_BUDGET {
                        match lp.next_time() {
                            Some(t) if t <= until && t < horizon => {}
                            _ => break,
                        }
                        lp.process_next(circuit, topo, until, block, &mut round, &mut |_, msg| {
                            if let TwMsg::Event(e) = msg {
                                horizon = horizon.min(e.time);
                            }
                        });
                    }
                }
                Some(BtbReport { horizon, next: lps.iter().filter_map(TwLp::next_time).min() })
            }
        };
        total.accumulate(&round);
        cx.charge(round.events_processed, round.evaluations, round.events_scheduled);
        cx.charge_with(|m| {
            // Priced while the price list is at hand: the committed work
            // so far, what one processor would have been charged.
            stats.modeled_work = total.committed_cost(m);
            round.saving_cost(m, StateSaving::Incremental)
        });
        report
    }

    fn decide(
        &self,
        _fabric: &Fabric<'_>,
        reports: &mut [Option<Option<BtbReport>>],
        cx: &mut DecideCx<'_>,
    ) -> Decision<Option<Breath>> {
        if reports.iter().flatten().any(Option::is_none) {
            // The exchange is complete: speculate on what it delivered.
            return Decision::Continue(None);
        }
        let speculated = || reports.iter().flatten().flatten();
        let horizon = speculated().map(|r| r.horizon).min().unwrap_or(VirtualTime::INFINITY);
        let next = speculated().filter_map(|r| r.next).min();
        if horizon.is_infinite() && next.is_none_or(|t| t > cx.until) {
            return Decision::Stop;
        }
        let commit = next.map_or(horizon, |t| t.min(horizon));
        cx.note_frontier(commit);
        Decision::Continue(Some(Breath { horizon, commit }))
    }

    fn finish(&self, fabric: &Fabric<'_>, _worker: usize, state: TwWorker<V>) -> WorkerOutput<V> {
        let mut out = state.finish(fabric);
        out.stats.anti_messages = 0; // structurally: cancellations never leave the node
        out
    }

    fn granularity(&self) -> usize {
        self.granularity
    }

    fn label(&self, modeled: bool) -> &'static str {
        if modeled {
            "breathing-time-buckets"
        } else {
            "threaded-breathing-time-buckets"
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::BtbSettings;
    use parsim_core::{Observe, SequentialSimulator, Simulator, Stimulus};
    use parsim_logic::{Bit, Logic4};
    use parsim_machine::MachineConfig;
    use parsim_netlist::{bench, generate, Circuit, DelayModel, GateId};
    use parsim_partition::{FiducciaMattheyses, GateWeights, Partition, Partitioner};

    /// Both drivers over `part`, with every net observed.
    fn both_drivers<V: LogicValue>(
        part: Partition,
        granularity: usize,
    ) -> [Box<dyn Simulator<V>>; 2] {
        let machine = MachineConfig::shared_memory(part.blocks());
        [
            Box::new(
                BtbSimulator::<V>::new(part.clone(), machine)
                    .with_granularity(granularity)
                    .with_observe(Observe::AllNets),
            ),
            Box::new(
                ThreadedBtbSimulator::<V>::new(part)
                    .with_granularity(granularity)
                    .with_observe(Observe::AllNets),
            ),
        ]
    }

    fn check_partition<V: LogicValue>(c: &Circuit, stim: &Stimulus, until: u64, part: Partition) {
        let until = VirtualTime::new(until);
        let seq =
            SequentialSimulator::<V>::new().with_observe(Observe::AllNets).run(c, stim, until);
        for sim in both_drivers::<V>(part, 1) {
            let out = sim.run(c, stim, until);
            if let Some(d) = out.divergence_from(&seq) {
                panic!("{} diverged on {}: {d}", sim.name(), c.name());
            }
        }
    }

    fn check_equivalent<V: LogicValue>(c: &Circuit, stim: &Stimulus, until: u64, p: usize) {
        let part = FiducciaMattheyses::default().partition(c, p, &GateWeights::uniform(c.len()));
        check_partition::<V>(c, stim, until, part);
    }

    #[test]
    fn matches_sequential_on_combinational() {
        check_equivalent::<Bit>(&bench::c17(), &Stimulus::random(7, 8), 200, 3);
        let c = generate::ripple_adder(10, DelayModel::PerKind);
        check_equivalent::<Logic4>(&c, &Stimulus::counting(25), 500, 4);
    }

    #[test]
    fn a_single_lp_commits_only_what_it_processed() {
        // One LP holds no sends, so no breath has a horizon, and c17's run
        // needs more batches than one breath's budget: the commit point
        // must stop at the LP's next unprocessed event.
        check_equivalent::<Bit>(&bench::c17(), &Stimulus::random(11, 9), 250, 1);
    }

    #[test]
    fn only_committed_batches_release_their_sends() {
        // Block 0 spends its breath budget on the 70-buffer chain around
        // t = 65, far below block 1's t = 100 batch, whose send to block 2
        // is therefore not yet committed. Releasing it anyway, and then
        // rolling its batch back when the chain reaches `g`, cancels a send
        // that has already left the node.
        let mut text = String::from("INPUT(x)\nINPUT(y)\nOUTPUT(z)\nb1 = BUFF(x)\n");
        for i in 2..=70 {
            text.push_str(&format!("b{i} = BUFF(b{})\n", i - 1));
        }
        text.push_str("g = XOR(b70, y)\nz = BUFF(g)\n");
        let c = bench::parse("chain70", &text, DelayModel::Unit).expect("valid netlist");
        let block = |id: GateId| match c.gate(id).name() {
            Some("y" | "g") => 1,
            Some("z") => 2,
            _ => 0,
        };
        let part = Partition::new(3, c.ids().map(block).collect()).expect("three blocks");
        let stim = Stimulus::replay(vec![(1, "x".into(), true), (100, "y".into(), true)]);
        check_partition::<Bit>(&c, &stim, 300, part);
    }

    #[test]
    fn matches_sequential_on_sequential_circuits() {
        let c = generate::lfsr(9, DelayModel::Unit);
        check_equivalent::<Bit>(&c, &Stimulus::quiet(1000).with_clock(5), 300, 4);
        let c = generate::ring(10, DelayModel::Unit);
        check_equivalent::<Bit>(&c, &Stimulus::random(2, 14).with_clock(7), 300, 4);
    }

    #[test]
    fn matches_sequential_on_random_dags() {
        for seed in 0..3 {
            let c = generate::random_dag(&generate::RandomDagConfig {
                gates: 180,
                seq_fraction: 0.12,
                delays: DelayModel::Uniform { min: 1, max: 9, seed },
                seed,
                ..Default::default()
            });
            check_equivalent::<Logic4>(&c, &Stimulus::random(seed, 11).with_clock(6), 250, 4);
        }
    }

    #[test]
    fn no_anti_messages_ever() {
        let c = generate::mesh(10, 10, DelayModel::Unit);
        let part = FiducciaMattheyses::default().partition(&c, 4, &GateWeights::uniform(c.len()));
        let [modeled, threaded] = both_drivers::<Bit>(part, 1);
        for sim in [&modeled, &threaded] {
            let out = sim.run(&c, &Stimulus::random(3, 14), VirtualTime::new(400));
            assert_eq!(out.stats.anti_messages, 0);
            assert!(out.stats.rollbacks > 0, "the cell must exercise local rollback");
            assert!(out.stats.barriers > 0, "breaths are barrier-synchronized");
        }
        let out = modeled.run(&c, &Stimulus::random(3, 14), VirtualTime::new(400));
        assert!(out.stats.modeled_speedup().is_some());
    }

    #[test]
    fn granularity_preserves_results() {
        let c = generate::mesh(8, 8, DelayModel::Unit);
        let part = FiducciaMattheyses::default().partition(&c, 4, &GateWeights::uniform(c.len()));
        let until = VirtualTime::new(250);
        let stim = Stimulus::random(8, 15);
        let base =
            SequentialSimulator::<Bit>::new().with_observe(Observe::AllNets).run(&c, &stim, until);
        for sim in both_drivers::<Bit>(part, 4) {
            assert_eq!(sim.run(&c, &stim, until).divergence_from(&base), None, "{}", sim.name());
        }
    }
}
