//! The modeled Time Warp kernel: the clock-ordered scheduler over the LP
//! state machine, messages, workers, probe records and prices every Time
//! Warp kernel shares.

use std::collections::{BTreeMap, VecDeque};
use std::marker::PhantomData;

use parsim_core::{Observe, SimOutcome, SimStats, Simulator, Stimulus};
use parsim_event::VirtualTime;
use parsim_logic::LogicValue;
use parsim_machine::{MachineConfig, VirtualMachine};
use parsim_netlist::{Circuit, Delay};
use parsim_partition::Partition;
use parsim_runtime::Fabric;
use parsim_trace::{Probe, TraceKind, NO_LP};

use crate::lp::{emit_send, emit_work, TwLp, TwMsg, TwWork, TwWorker};
use crate::{Cancellation, StateSaving, Window};

/// Jefferson's Time Warp on the virtual multiprocessor.
///
/// A deterministic smallest-clock scheduler drives the processors: the
/// processor with the lowest modeled clock takes the next action (deliver a
/// pending message — possibly triggering a rollback — or optimistically
/// process its lowest-timestamp LP batch). GVT is computed every
/// [`with_gvt_interval`](Self::with_gvt_interval) batches and fossil
/// collection reclaims state history behind it.
///
/// Configuration corners: [`StateSaving`] (copy vs incremental),
/// [`Cancellation`] (aggressive vs lazy), and an optional optimism window.
///
/// # Examples
///
/// ```
/// use parsim_core::{SequentialSimulator, Simulator, Stimulus};
/// use parsim_event::VirtualTime;
/// use parsim_logic::Bit;
/// use parsim_machine::MachineConfig;
/// use parsim_netlist::{generate, DelayModel};
/// use parsim_optimistic::TimeWarpSimulator;
/// use parsim_partition::{ConePartitioner, GateWeights, Partitioner};
///
/// let c = generate::ripple_adder(8, DelayModel::Unit);
/// let part = ConePartitioner.partition(&c, 4, &GateWeights::uniform(c.len()));
/// let sim = TimeWarpSimulator::<Bit>::new(part, MachineConfig::shared_memory(4));
/// let stim = Stimulus::random(2, 12);
/// let out = sim.run(&c, &stim, VirtualTime::new(300));
/// let oracle = SequentialSimulator::<Bit>::new().run(&c, &stim, VirtualTime::new(300));
/// assert_eq!(out.divergence_from(&oracle), None);
/// ```
#[derive(Debug, Clone)]
pub struct TimeWarpSimulator<V> {
    partition: Partition,
    machine: MachineConfig,
    saving: StateSaving,
    cancellation: Cancellation,
    gvt_interval: u64,
    window: Window,
    granularity: usize,
    observe: Observe,
    probe: Probe,
    _values: PhantomData<V>,
}

impl<V: LogicValue> TimeWarpSimulator<V> {
    /// Creates the kernel with one LP per partition block, incremental
    /// state saving, lazy cancellation, GVT every 64 batches and the
    /// automatic optimism window.
    ///
    /// # Panics
    ///
    /// Panics if the partition's block count differs from the machine's
    /// processor count.
    pub fn new(partition: Partition, machine: MachineConfig) -> Self {
        assert_eq!(
            partition.blocks(),
            machine.processors,
            "Time Warp kernel needs one partition block per processor"
        );
        TimeWarpSimulator {
            partition,
            machine,
            saving: StateSaving::Incremental,
            cancellation: Cancellation::Lazy,
            gvt_interval: 64,
            window: Window::Auto,
            granularity: 1,
            observe: Observe::Outputs,
            probe: Probe::disabled(),
            _values: PhantomData,
        }
    }

    /// Attaches a trace probe. The virtual machine records charge, idle and
    /// barrier spans on the modeled timeline; the kernel adds rollbacks
    /// (`arg` = events undone), state saves, event/anti-message sends
    /// (`lp` = source LP, `arg` = destination LP), batched gate evaluations
    /// and a `GvtAdvance` per GVT round.
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

    /// Sets how many processed batches elapse between GVT computations.
    ///
    /// # Panics
    ///
    /// Panics if `interval` is zero.
    pub fn with_gvt_interval(mut self, interval: u64) -> Self {
        assert!(interval > 0, "GVT interval must be positive");
        self.gvt_interval = interval;
        self
    }

    /// Throttles optimism: LPs may only process events within `window`
    /// ticks of the last GVT estimate.
    pub fn with_window(mut self, window: u64) -> Self {
        self.window = Window::Fixed(window);
        self
    }

    /// Removes the optimism bound entirely (pure Jefferson Time Warp).
    /// Expect the §V instability: on scattered partitions with spread-out
    /// delays, rollback echo can blow the message population up.
    ///
    /// Public API: the unthrottled protocol the paper describes, which
    /// EXPERIMENTS.md E4 cites for the non-convergence that made lazy
    /// cancellation the default; no committed table sets it, and the
    /// optimistic property suite checks it still commits the sequential
    /// history.
    pub fn with_unbounded_optimism(mut self) -> Self {
        self.window = Window::Unbounded;
        self
    }

    /// Splits every block into `factor` LPs (experiment E7).
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

impl<V: LogicValue> Simulator<V> for TimeWarpSimulator<V> {
    fn name(&self) -> String {
        let s = match self.saving {
            StateSaving::Copy => "copy",
            StateSaving::Incremental => "incr",
        };
        let c = match self.cancellation {
            Cancellation::Aggressive => "aggr",
            Cancellation::Lazy => "lazy",
        };
        format!("time-warp-{s}-{c}(P={})", self.machine.processors)
    }

    fn run(&self, circuit: &Circuit, stimulus: &Stimulus, until: VirtualTime) -> SimOutcome<V> {
        // The fabric supplies what every driver shares — the LP
        // decomposition, the preloads and the LPs' compiled blocks — but not
        // its round loop: the clock-ordered scheduler below replaces it.
        let fabric = Fabric::new(circuit, &self.partition, self.granularity, self.observe);
        let (topo, machine) = (fabric.topo(), self.machine);
        let mut vm = VirtualMachine::new(machine);
        vm.attach_probe(&self.probe);
        let mut ph = self.probe.handle();

        let mut preloads = fabric.preloads::<V>(stimulus, until).into_iter();
        let mut workers: Vec<TwWorker<V>> = (0..machine.processors)
            .map(|p| {
                let mine = preloads.by_ref().take(self.granularity).collect();
                TwWorker::new(&fabric, p, mine, self.saving, self.cancellation)
            })
            .collect();

        // Per-processor FIFO inboxes of (ready, dst LP, message).
        let mut inboxes: Vec<VecDeque<(u64, usize, TwMsg<V>)>> =
            (0..machine.processors).map(|_| VecDeque::new()).collect();
        let mut in_flight = 0usize;
        let mut batches_since_gvt = 0u64;
        let mut gvt_rounds = 0u64;
        let mut gvt_estimate = VirtualTime::ZERO;
        let window_ticks: Option<u64> = match self.window {
            Window::Auto => Some((2 * circuit.max_gate_delay().ticks()).max(16)),
            Window::Fixed(w) => Some(w),
            Window::Unbounded => None,
        };

        // Charges one action of LP `lp` on processor `p`, records it and
        // routes its messages.
        macro_rules! route {
            ($p:expr, $lp:expr, $work:expr, $sends:expr) => {{
                let (p, w) = ($p, &$work);
                workers[p].total.accumulate(w);
                let executed = (w.events_processed + w.events_scheduled) * machine.event_cost
                    + w.evaluations * machine.eval_cost;
                vm.charge(p, executed + w.saving_cost(&machine, self.saving));
                emit_work(&mut ph, |_| vm.clock(p), p, $lp, w);
                for (dst, msg) in $sends {
                    let to = fabric.worker_of(dst);
                    let ready = vm.send(p, to);
                    if let TwMsg::Event(_) = msg {
                        workers[p].stats.messages_sent += 1;
                    }
                    emit_send(&mut ph, |_| vm.clock(p), p, $lp, dst, &msg);
                    inboxes[to].push_back((ready, dst, msg));
                    in_flight += 1;
                }
            }};
        }

        loop {
            // Scheduler: the lowest-clock processor with an immediate
            // action (deliverable messages first, then a processable LP).
            let limit = match window_ticks {
                None => until,
                Some(w) => until.min(gvt_estimate + Delay::new(w)),
            };
            let mut order: Vec<usize> = (0..machine.processors).collect();
            order.sort_by_key(|&p| (vm.clock(p), p));

            let mut acted = false;
            for &p in &order {
                // Deliver every message that has arrived, grouped per LP
                // and applied with a single rollback per LP (see
                // `TwLp::receive_batch` — per-message rollback lets the
                // anti-message echo grow exponentially).
                let mut groups: BTreeMap<usize, Vec<TwMsg<V>>> = BTreeMap::new();
                while let Some(&(ready, dst, msg)) = inboxes[p].front() {
                    if ready > vm.clock(p) {
                        break;
                    }
                    inboxes[p].pop_front();
                    in_flight -= 1;
                    vm.receive(p, ready);
                    groups.entry(dst).or_default().push(msg);
                }
                acted = !groups.is_empty();
                for (dst, batch) in groups {
                    let (mut work, mut sends) = (TwWork::default(), Vec::new());
                    let lp = &mut workers[p].lps[fabric.slot_of(dst)];
                    lp.receive_batch(batch, &mut work, &mut |to, m| sends.push((to, m)));
                    route!(p, dst, work, sends);
                }
                if acted {
                    break;
                }
                // Otherwise process the lowest-timestamp LP batch on p.
                let candidate = workers[p]
                    .lps
                    .iter()
                    .filter_map(|lp| lp.next_time().filter(|&t| t <= limit).map(|t| (t, lp.index)))
                    .min();
                if let Some((_, lp_idx)) = candidate {
                    let (mut work, mut sends) = (TwWork::default(), Vec::new());
                    let lp = &mut workers[p].lps[fabric.slot_of(lp_idx)];
                    let block = fabric.compiled_block(lp_idx);
                    let mut collect = |to, m| sends.push((to, m));
                    let processed =
                        lp.process_next(circuit, topo, limit, block, &mut work, &mut collect);
                    debug_assert!(processed, "candidate had work");
                    batches_since_gvt += 1;
                    route!(p, lp_idx, work, sends);
                    acted = true;
                    break;
                }
            }

            // Periodic GVT + fossil collection.
            if batches_since_gvt >= self.gvt_interval || !acted {
                let gvt = workers
                    .iter()
                    .flat_map(|w| &w.lps)
                    .filter_map(TwLp::next_time)
                    .chain(inboxes.iter().flatten().map(|(_, _, m)| m.time()))
                    .min();
                gvt_rounds += 1;
                batches_since_gvt = 0;
                for p in 0..machine.processors {
                    vm.charge(p, machine.gvt_cost);
                }
                if ph.enabled() {
                    let g = gvt.map_or(0, VirtualTime::ticks);
                    ph.emit(vm.makespan(), g, 0, NO_LP, TraceKind::GvtAdvance, g);
                }
                match gvt {
                    Some(g) => {
                        gvt_estimate = g;
                        for lp in workers.iter_mut().flat_map(|w| &mut w.lps) {
                            let _ = lp.fossil_collect(g);
                        }
                        if !acted && g > until && in_flight == 0 {
                            break;
                        }
                    }
                    None => {
                        if in_flight == 0 {
                            break;
                        }
                    }
                }
                if !acted && in_flight > 0 {
                    // Nothing is immediately deliverable: advance the
                    // earliest-delivery processor to its message.
                    let (p, ready) = inboxes
                        .iter()
                        .enumerate()
                        .filter_map(|(p, q)| q.front().map(|&(r, _, _)| (p, r)))
                        .min_by_key(|&(p, r)| (r, p))
                        .expect("in_flight > 0");
                    vm.wait_until(p, ready);
                }
            }
        }

        // Every LP has committed its full history.
        debug_assert!(workers.iter().flat_map(|w| &w.lps).all(|lp| lp.done(until)));
        let modeled_work = workers.iter().map(|w| w.total.committed_cost(&machine)).sum();
        let mut outcome = SimOutcome {
            final_values: vec![V::ZERO; circuit.len()],
            waveforms: BTreeMap::new(),
            end_time: until,
            stats: SimStats::default(),
        };
        for out in workers.into_iter().map(|w| w.finish(&fabric)) {
            for (id, v) in out.owned_values {
                outcome.final_values[id.index()] = v;
            }
            outcome.waveforms.extend(out.waveforms);
            outcome.stats.merge(&out.stats);
        }
        outcome.stats.gvt_rounds = gvt_rounds;
        outcome.stats.modeled_makespan = vm.makespan();
        outcome.stats.modeled_work = modeled_work;
        outcome
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use parsim_core::SequentialSimulator;
    use parsim_logic::{Bit, Logic4};
    use parsim_netlist::{bench, generate, DelayModel};
    use parsim_partition::{FiducciaMattheyses, GateWeights, Partitioner};

    fn partition(c: &Circuit, p: usize) -> Partition {
        FiducciaMattheyses::default().partition(c, p, &GateWeights::uniform(c.len()))
    }

    fn check_equivalent<V: LogicValue>(
        sim: &TimeWarpSimulator<V>,
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

    #[test]
    fn matches_sequential_on_combinational() {
        let c = bench::c17();
        let sim = TimeWarpSimulator::<Bit>::new(partition(&c, 3), MachineConfig::shared_memory(3));
        check_equivalent(&sim, &c, &Stimulus::random(8, 7), 200);
    }

    #[test]
    fn matches_sequential_on_sequential_circuits() {
        let c = generate::lfsr(9, DelayModel::Unit);
        let sim = TimeWarpSimulator::<Bit>::new(partition(&c, 4), MachineConfig::shared_memory(4));
        check_equivalent(&sim, &c, &Stimulus::quiet(1000).with_clock(5), 300);
        let c = generate::ring(10, DelayModel::Unit);
        let sim = TimeWarpSimulator::<Bit>::new(partition(&c, 4), MachineConfig::shared_memory(4));
        check_equivalent(&sim, &c, &Stimulus::random(3, 14).with_clock(7), 300);
    }

    #[test]
    fn all_configuration_corners_match_sequential() {
        let c = generate::random_dag(&generate::RandomDagConfig {
            gates: 150,
            seq_fraction: 0.15,
            delays: DelayModel::Uniform { min: 1, max: 9, seed: 1 },
            seed: 1,
            ..Default::default()
        });
        let stim = Stimulus::random(1, 11).with_clock(6);
        for saving in [StateSaving::Copy, StateSaving::Incremental] {
            for cancellation in [Cancellation::Aggressive, Cancellation::Lazy] {
                let sim = TimeWarpSimulator::<Logic4>::new(
                    partition(&c, 4),
                    MachineConfig::shared_memory(4),
                )
                .with_state_saving(saving)
                .with_cancellation(cancellation)
                .with_gvt_interval(16);
                check_equivalent(&sim, &c, &stim, 250);
            }
        }
    }

    #[test]
    fn window_throttle_preserves_results() {
        let c = generate::mesh(8, 8, DelayModel::Unit);
        let sim = TimeWarpSimulator::<Bit>::new(partition(&c, 4), MachineConfig::shared_memory(4))
            .with_window(16)
            .with_gvt_interval(8);
        check_equivalent(&sim, &c, &Stimulus::random(5, 9), 250);
    }

    #[test]
    fn granularity_preserves_results() {
        let c = generate::mesh(8, 8, DelayModel::Unit);
        let sim = TimeWarpSimulator::<Bit>::new(partition(&c, 4), MachineConfig::shared_memory(4))
            .with_granularity(4);
        check_equivalent(&sim, &c, &Stimulus::random(6, 13), 200);
    }

    #[test]
    fn rollbacks_happen_and_efficiency_reported() {
        // Heterogeneous delays + scattered partition provoke stragglers.
        let c = generate::random_dag(&generate::RandomDagConfig {
            gates: 300,
            delays: DelayModel::Uniform { min: 1, max: 20, seed: 4 },
            seed: 4,
            ..Default::default()
        });
        let part = parsim_partition::RoundRobinPartitioner.partition(
            &c,
            8,
            &GateWeights::uniform(c.len()),
        );
        let out = TimeWarpSimulator::<Bit>::new(part, MachineConfig::shared_memory(8))
            .with_gvt_interval(32)
            .run(&c, &Stimulus::random(4, 15), VirtualTime::new(600));
        assert!(out.stats.rollbacks > 0, "expected optimism to misfire at least once");
        assert!(out.stats.efficiency() <= 1.0);
        assert!(out.stats.gvt_rounds > 0);
        assert!(out.stats.modeled_speedup().is_some());
    }

    #[test]
    fn lazy_cancellation_sends_no_more_antis_than_aggressive() {
        let c = generate::random_dag(&generate::RandomDagConfig {
            gates: 250,
            delays: DelayModel::Uniform { min: 1, max: 16, seed: 9 },
            seed: 9,
            ..Default::default()
        });
        let part = parsim_partition::RoundRobinPartitioner.partition(
            &c,
            6,
            &GateWeights::uniform(c.len()),
        );
        let stim = Stimulus::random(9, 12);
        let until = VirtualTime::new(500);
        let aggressive =
            TimeWarpSimulator::<Bit>::new(part.clone(), MachineConfig::shared_memory(6))
                .with_cancellation(Cancellation::Aggressive)
                .run(&c, &stim, until);
        let lazy = TimeWarpSimulator::<Bit>::new(part, MachineConfig::shared_memory(6))
            .with_cancellation(Cancellation::Lazy)
            .run(&c, &stim, until);
        assert_eq!(aggressive.divergence_from(&lazy), None);
        assert!(
            lazy.stats.anti_messages <= aggressive.stats.anti_messages,
            "lazy ({}) should not exceed aggressive ({})",
            lazy.stats.anti_messages,
            aggressive.stats.anti_messages
        );
    }
}
