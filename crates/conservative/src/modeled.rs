//! The modeled conservative kernel.

use std::marker::PhantomData;

use parsim_core::{Observe, SimOutcome, Simulator, Stimulus};
use parsim_event::VirtualTime;
use parsim_logic::LogicValue;
use parsim_machine::MachineConfig;
use parsim_netlist::Circuit;
use parsim_partition::Partition;
use parsim_runtime::Fabric;
use parsim_trace::Probe;

use crate::threaded::CmbProtocol;
use crate::DeadlockStrategy;

/// The Chandy–Misra–Bryant kernel on the virtual multiprocessor: the
/// protocol [`ThreadedConservativeSimulator`](crate::ThreadedConservativeSimulator)
/// runs on threads, stepped by the fabric's modeled driver
/// ([`Fabric::run_modeled`]) instead.
///
/// LPs are partition blocks, optionally subdivided with
/// [`with_granularity`](Self::with_granularity) (experiment E7). Activations
/// proceed in deterministic rounds; every protocol action — event and null
/// message sends/receives, evaluations, queue operations, deadlock-recovery
/// markers — is charged to the owning processor's clock.
///
/// # Examples
///
/// ```
/// use parsim_conservative::ConservativeSimulator;
/// use parsim_core::{SequentialSimulator, Simulator, Stimulus};
/// use parsim_event::VirtualTime;
/// use parsim_logic::Bit;
/// use parsim_machine::MachineConfig;
/// use parsim_netlist::{generate, DelayModel};
/// use parsim_partition::{ConePartitioner, GateWeights, Partitioner};
///
/// let c = generate::ripple_adder(8, DelayModel::Unit);
/// let part = ConePartitioner.partition(&c, 4, &GateWeights::uniform(c.len()));
/// let sim = ConservativeSimulator::<Bit>::new(part, MachineConfig::shared_memory(4));
/// let stim = Stimulus::random(9, 15);
/// let out = sim.run(&c, &stim, VirtualTime::new(300));
/// let oracle = SequentialSimulator::<Bit>::new().run(&c, &stim, VirtualTime::new(300));
/// assert_eq!(out.divergence_from(&oracle), None);
/// assert!(out.stats.null_messages > 0);
/// ```
#[derive(Debug, Clone)]
pub struct ConservativeSimulator<V> {
    partition: Partition,
    machine: MachineConfig,
    strategy: DeadlockStrategy,
    granularity: usize,
    observe: Observe,
    probe: Probe,
    _values: PhantomData<V>,
}

impl<V: LogicValue> ConservativeSimulator<V> {
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
            "conservative kernel needs one partition block per processor"
        );
        ConservativeSimulator {
            partition,
            machine,
            strategy: DeadlockStrategy::NullMessages,
            granularity: 1,
            observe: Observe::Outputs,
            probe: Probe::disabled(),
            _values: PhantomData,
        }
    }

    /// Attaches a trace probe. The virtual machine records charge and idle
    /// spans; the protocol adds per-channel event and null-message sends
    /// (`lp` = source LP, `arg` = destination LP — the axes of the
    /// null-ratio analysis), batched gate evaluations per activation, and a
    /// `GvtAdvance` per processor per deadlock recovery.
    pub fn with_probe(mut self, probe: Probe) -> Self {
        self.probe = probe;
        self
    }

    /// Selects the deadlock discipline.
    pub fn with_strategy(mut self, strategy: DeadlockStrategy) -> Self {
        self.strategy = strategy;
        self
    }

    /// Splits every block into `factor` LPs (experiment E7: LP granularity).
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

impl<V: LogicValue> Simulator<V> for ConservativeSimulator<V> {
    fn name(&self) -> String {
        let strategy = match self.strategy {
            DeadlockStrategy::NullMessages => "null-msg",
            DeadlockStrategy::DetectAndRecover => "deadlock-recovery",
        };
        format!("conservative-{strategy}(P={})", self.machine.processors)
    }

    fn run(&self, circuit: &Circuit, stimulus: &Stimulus, until: VirtualTime) -> SimOutcome<V> {
        // Interpreted on purpose: the modeled kernels are the differential
        // reference the compiled paths are checked against.
        Fabric::new(circuit, &self.partition, self.granularity, self.observe).run_modeled(
            stimulus,
            until,
            &self.probe,
            &CmbProtocol { strategy: self.strategy },
            self.machine,
        )
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
        c: &Circuit,
        stim: &Stimulus,
        until: u64,
        p: usize,
        strategy: DeadlockStrategy,
    ) {
        let cons =
            ConservativeSimulator::<V>::new(partition(c, p), MachineConfig::shared_memory(p))
                .with_strategy(strategy)
                .with_observe(Observe::AllNets)
                .run(c, stim, VirtualTime::new(until));
        let seq = SequentialSimulator::<V>::new().with_observe(Observe::AllNets).run(
            c,
            stim,
            VirtualTime::new(until),
        );
        if let Some(d) = cons.divergence_from(&seq) {
            panic!("conservative kernel ({strategy:?}) diverged on {}: {d}", c.name());
        }
    }

    #[test]
    fn null_messages_match_sequential_on_combinational() {
        check_equivalent::<Bit>(
            &bench::c17(),
            &Stimulus::random(3, 8),
            200,
            3,
            DeadlockStrategy::NullMessages,
        );
        let c = generate::ripple_adder(10, DelayModel::PerKind);
        check_equivalent::<Logic4>(
            &c,
            &Stimulus::counting(25),
            500,
            4,
            DeadlockStrategy::NullMessages,
        );
    }

    #[test]
    fn null_messages_match_sequential_on_sequential_circuits() {
        let c = generate::lfsr(9, DelayModel::Unit);
        check_equivalent::<Bit>(
            &c,
            &Stimulus::quiet(1000).with_clock(5),
            300,
            4,
            DeadlockStrategy::NullMessages,
        );
        // A ring of flip-flops split across LPs: the cyclic-waiting case
        // null messages exist for.
        let c = generate::ring(12, DelayModel::Unit);
        check_equivalent::<Bit>(
            &c,
            &Stimulus::random(7, 16).with_clock(8),
            400,
            4,
            DeadlockStrategy::NullMessages,
        );
    }

    #[test]
    fn deadlock_recovery_matches_sequential() {
        check_equivalent::<Bit>(
            &bench::c17(),
            &Stimulus::random(4, 9),
            200,
            3,
            DeadlockStrategy::DetectAndRecover,
        );
        let c = generate::ring(8, DelayModel::Unit);
        check_equivalent::<Bit>(
            &c,
            &Stimulus::random(2, 12).with_clock(6),
            300,
            4,
            DeadlockStrategy::DetectAndRecover,
        );
    }

    #[test]
    fn random_dags_with_heterogeneous_delays() {
        for seed in 0..3 {
            let c = generate::random_dag(&generate::RandomDagConfig {
                gates: 200,
                seq_fraction: 0.15,
                delays: DelayModel::Uniform { min: 1, max: 11, seed },
                seed,
                ..Default::default()
            });
            let stim = Stimulus::random(seed, 13).with_clock(7);
            check_equivalent::<Logic4>(&c, &stim, 250, 4, DeadlockStrategy::NullMessages);
            check_equivalent::<Logic4>(&c, &stim, 250, 4, DeadlockStrategy::DetectAndRecover);
        }
    }

    #[test]
    fn granularity_sweep_preserves_results() {
        let c = generate::mesh(10, 10, DelayModel::Unit);
        let stim = Stimulus::random(5, 20);
        let until = VirtualTime::new(300);
        let base =
            SequentialSimulator::<Bit>::new().with_observe(Observe::AllNets).run(&c, &stim, until);
        for factor in [1, 2, 8] {
            let out = ConservativeSimulator::<Bit>::new(
                partition(&c, 4),
                MachineConfig::shared_memory(4),
            )
            .with_granularity(factor)
            .with_observe(Observe::AllNets)
            .run(&c, &stim, until);
            assert_eq!(out.divergence_from(&base), None, "factor {factor} diverged");
        }
    }

    #[test]
    fn null_message_count_reported() {
        // Contiguous split of a ring: every block borders the next, so the
        // LP graph is itself a ring — the null-message showcase. (Cone
        // partitioning would put the whole ring, a single output cone, on
        // one block and need no messages at all.)
        let c = generate::ring(16, DelayModel::Unit);
        let out = ConservativeSimulator::<Bit>::new(
            parsim_partition::ContiguousPartitioner.partition(
                &c,
                4,
                &GateWeights::uniform(c.len()),
            ),
            MachineConfig::shared_memory(4),
        )
        .run(&c, &Stimulus::random(1, 10).with_clock(5), VirtualTime::new(400));
        assert!(out.stats.null_messages > 0, "ring across LPs must need null messages");
        assert!(out.stats.modeled_speedup().is_some());
    }

    #[test]
    fn deadlock_recovery_counts_recoveries() {
        let c = generate::ring(8, DelayModel::Unit);
        let out =
            ConservativeSimulator::<Bit>::new(partition(&c, 4), MachineConfig::shared_memory(4))
                .with_strategy(DeadlockStrategy::DetectAndRecover)
                .run(&c, &Stimulus::quiet(1000).with_clock(5), VirtualTime::new(200));
        assert!(out.stats.gvt_rounds > 0, "expected at least one deadlock recovery");
        assert_eq!(out.stats.null_messages, 0);
    }
}
