//! Breathing Time Buckets — the §VI synchronous/optimistic hybrid.

#![allow(clippy::needless_range_loop)] // index-parallel arrays: indices are the clearer idiom here
use std::collections::BTreeMap;
use std::marker::PhantomData;

use parsim_core::{Observe, SimOutcome, SimStats, Simulator, Stimulus, Waveform};
use parsim_event::{Event, VirtualTime};
use parsim_logic::LogicValue;
use parsim_machine::{MachineConfig, VirtualMachine};
use parsim_netlist::{Circuit, GateId};
use parsim_partition::Partition;
use parsim_runtime::Fabric;

use crate::lp::{TwLp, TwOutgoing, TwWork};
use crate::{Cancellation, StateSaving};

/// Batches each LP may process per breathing cycle.
const CYCLE_BUDGET: usize = 64;

/// Steinman's *Breathing Time Buckets* (SPEEDES), the §VI direction: "the
/// synchronous algorithm is being expanded to include many of the features
/// found in asynchronous algorithms, with an attempt to avoid the
/// performance instabilities found in the asynchronous algorithms."
///
/// Each global cycle ("breath"):
///
/// 1. LPs process their pending events **optimistically**, but outgoing
///    messages are *buffered*, never released;
/// 2. the **event horizon** — the minimum timestamp of any buffered
///    message — is computed at a barrier;
/// 3. work beyond the horizon is rolled back *locally* (the cancelled
///    messages were never delivered, so no anti-messages cross LPs — the
///    instability mechanism of Time Warp is structurally absent);
/// 4. everything before the horizon is committed, and the surviving
///    messages are exchanged.
///
/// Risk-free optimism: the speculation is local, the commitment is global
/// and monotone. Results are bit-identical to the sequential reference.
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
#[derive(Debug, Clone)]
pub struct BtbSimulator<V> {
    partition: Partition,
    machine: MachineConfig,
    granularity: usize,
    observe: Observe,
    _values: PhantomData<V>,
}

impl<V: LogicValue> BtbSimulator<V> {
    /// Creates the kernel with one LP per partition block.
    ///
    /// # Panics
    ///
    /// Panics if the partition's block count differs from the machine's
    /// processor count.
    pub fn new(partition: Partition, machine: MachineConfig) -> Self {
        assert_eq!(
            partition.blocks(),
            machine.processors,
            "breathing-time-buckets kernel needs one partition block per processor"
        );
        BtbSimulator {
            partition,
            machine,
            granularity: 1,
            observe: Observe::Outputs,
            _values: PhantomData,
        }
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
}

impl<V: LogicValue> Simulator<V> for BtbSimulator<V> {
    fn name(&self) -> String {
        format!("breathing-time-buckets(P={})", self.machine.processors)
    }

    fn run(&self, circuit: &Circuit, stimulus: &Stimulus, until: VirtualTime) -> SimOutcome<V> {
        // The fabric is used for what every driver shares — the LP
        // decomposition, the preload routing and the LPs' compiled blocks
        // (compiled in memory on first use) — not for its round loop.
        let fabric = Fabric::new(circuit, &self.partition, self.granularity, self.observe);
        let topo = fabric.topo();
        let n_lps = topo.lps().len();
        let proc_of = |lp: usize| lp / self.granularity;
        let mut vm = VirtualMachine::new(self.machine);
        let mut stats = SimStats::default();

        let mut lps: Vec<TwLp<V>> = (0..n_lps)
            .map(|i| {
                TwLp::new(
                    circuit,
                    topo,
                    i,
                    StateSaving::Incremental,
                    Cancellation::Aggressive,
                    fabric.observed_by(i),
                )
            })
            .collect();

        for (lp, events) in lps.iter_mut().zip(fabric.preloads::<V>(stimulus, until)) {
            for e in events {
                lp.preload(e);
            }
        }

        let mut total = TwWork::default();
        // Messages committed by previous breaths, awaiting delivery.
        let mut inbox: Vec<(usize, usize, Event<V>)> = Vec::new(); // (src_proc, dst, event)

        loop {
            // Phase 1: deliver last breath's committed messages. These are
            // all at or beyond the previous horizon, so no rollback occurs.
            for (src_proc, dst, e) in inbox.drain(..) {
                let p = proc_of(dst);
                let ready = vm.send(src_proc, p);
                stats.messages_sent += 1;
                vm.receive(p, ready);
                let mut work = TwWork::default();
                lps[dst].receive_event(e, &mut work, &mut |_| {
                    unreachable!("committed deliveries cannot trigger cancellation")
                });
                debug_assert_eq!(work.rollbacks, 0, "committed deliveries cannot roll back");
            }

            // Phase 2: optimistic local processing with buffered sends.
            // The running horizon estimate (minimum buffered send time so
            // far) prunes speculation: a batch at or beyond it is certain
            // to be rolled back this breath, because the final horizon can
            // only be lower still. This is the "breathing" in breathing
            // time buckets — processing naturally stops at the event
            // horizon instead of burning a fixed budget.
            let mut buffer: Vec<(usize, usize, Event<V>)> = Vec::new(); // (src_lp, dst, event)
            let mut horizon_estimate = VirtualTime::INFINITY;
            let mut processed_any = false;
            for lp_idx in 0..n_lps {
                let p = proc_of(lp_idx);
                for _ in 0..CYCLE_BUDGET {
                    match lps[lp_idx].next_time() {
                        Some(t) if t <= until && t < horizon_estimate => {}
                        _ => break,
                    }
                    let mut work = TwWork::default();
                    let processed = lps[lp_idx].process_next(
                        circuit,
                        topo,
                        until,
                        fabric.compiled_block(lp_idx),
                        &mut work,
                        &mut |out| match out {
                            TwOutgoing::Event { dst, event } => {
                                horizon_estimate = horizon_estimate.min(event.time);
                                buffer.push((lp_idx, dst, event));
                            }
                            TwOutgoing::Anti { .. } => {
                                unreachable!("no rollback during forward processing")
                            }
                        },
                    );
                    debug_assert!(processed, "next_time was checked above");
                    charge(&mut vm, p, &work, &self.machine);
                    total.accumulate(&work);
                    processed_any = true;
                    stats.state_saves += 1;
                }
            }

            // Phase 3: the event horizon, at a barrier.
            vm.barrier();
            stats.barriers += 1;
            let horizon: Option<VirtualTime> = buffer.iter().map(|&(_, _, e)| e.time).min();

            // Phase 4: local rollback of everything at or beyond the
            // horizon; cancelled sends are annihilated inside the buffer
            // (they were never delivered — no anti-messages on the wire).
            if let Some(h) = horizon {
                for lp_idx in 0..n_lps {
                    let p = proc_of(lp_idx);
                    let mut work = TwWork::default();
                    let mut cancelled: Vec<(usize, Event<V>)> = Vec::new();
                    lps[lp_idx].rollback_to_before(h, &mut work, &mut |out| match out {
                        TwOutgoing::Anti { dst, event } => cancelled.push((dst, event)),
                        TwOutgoing::Event { .. } => {
                            unreachable!("rollback emits only cancellations")
                        }
                    });
                    for (dst, e) in cancelled {
                        let pos = buffer
                            .iter()
                            .position(|&(src, d, be)| src == lp_idx && d == dst && be == e)
                            .expect("cancelled send is still buffered");
                        buffer.swap_remove(pos);
                    }
                    // Local cancellation is cheap: charge rollback cost but
                    // no message traffic (the anti-message count in `work`
                    // is discarded — nothing left the node).
                    charge(&mut vm, p, &work, &self.machine);
                    total.accumulate(&work);
                }
            }

            // Phase 5: commit (fossil-collect) behind the horizon and stage
            // the surviving messages for delivery. An LP that spent its
            // cycle budget short of the horizon has unprocessed events below
            // it, so the commit point is also bounded by every LP's next
            // unprocessed time.
            let gvt = lps
                .iter()
                .filter_map(TwLp::next_time)
                .chain(horizon)
                .min()
                .unwrap_or(until + parsim_netlist::Delay::UNIT);
            stats.gvt_rounds += 1;
            for lp in lps.iter_mut() {
                let _ = lp.fossil_collect(gvt);
            }
            inbox = buffer.into_iter().map(|(src_lp, dst, e)| (proc_of(src_lp), dst, e)).collect();

            if inbox.is_empty() && !processed_any {
                break;
            }
        }

        let mut final_values = vec![V::ZERO; circuit.len()];
        let mut waveforms: BTreeMap<GateId, Waveform<V>> = BTreeMap::new();
        for lp in &lps {
            for (id, v) in lp.owned_values(topo) {
                final_values[id.index()] = v;
            }
        }
        for lp in &mut lps {
            waveforms.extend(lp.take_waveforms());
        }

        total.write_stats(&mut stats);
        stats.anti_messages = 0; // structurally: cancellations never leave the node
        stats.modeled_makespan = vm.makespan();
        stats.modeled_work = total.committed_cost(&self.machine);
        SimOutcome { final_values, waveforms, end_time: until, stats }
    }
}

fn charge(vm: &mut VirtualMachine, p: usize, w: &TwWork, cfg: &MachineConfig) {
    vm.charge(
        p,
        w.events_processed * cfg.event_cost
            + w.evaluations * cfg.eval_cost
            + w.events_scheduled * cfg.event_cost
            + w.rollbacks * cfg.rollback_cost
            + w.state_slots_saved * cfg.incremental_save_cost,
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use parsim_core::SequentialSimulator;
    use parsim_logic::{Bit, Logic4};
    use parsim_netlist::{bench, generate, DelayModel};
    use parsim_partition::{FiducciaMattheyses, GateWeights, Partitioner};

    fn check_equivalent<V: LogicValue>(c: &Circuit, stim: &Stimulus, until: u64, p: usize) {
        let part = FiducciaMattheyses::default().partition(c, p, &GateWeights::uniform(c.len()));
        let btb = BtbSimulator::<V>::new(part, MachineConfig::shared_memory(p))
            .with_observe(Observe::AllNets)
            .run(c, stim, VirtualTime::new(until));
        let seq = SequentialSimulator::<V>::new().with_observe(Observe::AllNets).run(
            c,
            stim,
            VirtualTime::new(until),
        );
        if let Some(d) = btb.divergence_from(&seq) {
            panic!("breathing-time-buckets diverged on {}: {d}", c.name());
        }
    }

    #[test]
    fn matches_sequential_on_combinational() {
        check_equivalent::<Bit>(&bench::c17(), &Stimulus::random(7, 8), 200, 3);
        let c = generate::ripple_adder(10, DelayModel::PerKind);
        check_equivalent::<Logic4>(&c, &Stimulus::counting(25), 500, 4);
    }

    #[test]
    fn a_single_lp_commits_only_what_it_processed() {
        // One LP buffers no sends, so no breath has a horizon, and c17's
        // run needs more batches than one breath's budget: the commit point
        // must stop at the LP's next unprocessed event.
        check_equivalent::<Bit>(&bench::c17(), &Stimulus::random(11, 9), 250, 1);
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
        let out = BtbSimulator::<Bit>::new(part, MachineConfig::shared_memory(4)).run(
            &c,
            &Stimulus::random(3, 14),
            VirtualTime::new(400),
        );
        assert_eq!(out.stats.anti_messages, 0);
        assert!(out.stats.barriers > 0, "breaths are barrier-synchronized");
        assert!(out.stats.modeled_speedup().is_some());
    }

    #[test]
    fn granularity_preserves_results() {
        let c = generate::mesh(8, 8, DelayModel::Unit);
        let part = FiducciaMattheyses::default().partition(&c, 4, &GateWeights::uniform(c.len()));
        let base = SequentialSimulator::<Bit>::new().with_observe(Observe::AllNets).run(
            &c,
            &Stimulus::random(8, 15),
            VirtualTime::new(250),
        );
        let out = BtbSimulator::<Bit>::new(part, MachineConfig::shared_memory(4))
            .with_granularity(4)
            .with_observe(Observe::AllNets)
            .run(&c, &Stimulus::random(8, 15), VirtualTime::new(250));
        assert_eq!(out.divergence_from(&base), None);
    }
}
