//! The modeled synchronous kernel.

use std::marker::PhantomData;

use parsim_core::{Observe, SimOutcome, Simulator, Stimulus};
use parsim_event::VirtualTime;
use parsim_logic::LogicValue;
use parsim_machine::MachineConfig;
use parsim_netlist::Circuit;
use parsim_partition::Partition;
use parsim_runtime::Fabric;
use parsim_trace::Probe;

use crate::threaded::BarrierProtocol;

/// The synchronous global-clock kernel on the virtual multiprocessor: the
/// protocol [`ThreadedSyncSimulator`](crate::ThreadedSyncSimulator) runs on
/// threads, stepped by the fabric's modeled driver
/// ([`Fabric::run_modeled`]) instead.
///
/// Each superstep: every processor retrieves its events at the common
/// simulated time, applies them, evaluates its affected gates, distributes
/// output events (paying message costs for cross-block fanout), and then all
/// processors barrier to agree on the next event time. Modeled time advances
/// per the [`MachineConfig`] price list; logical results are bit-identical
/// to the sequential reference.
///
/// See the crate docs for an example.
#[derive(Debug, Clone)]
pub struct SyncSimulator<V> {
    partition: Partition,
    machine: MachineConfig,
    observe: Observe,
    probe: Probe,
    _values: PhantomData<V>,
}

impl<V: LogicValue> SyncSimulator<V> {
    /// Creates the kernel over a partition, one block per processor.
    ///
    /// # Panics
    ///
    /// Panics if the partition's block count differs from the machine's
    /// processor count.
    pub fn new(partition: Partition, machine: MachineConfig) -> Self {
        assert_eq!(
            partition.blocks(),
            machine.processors,
            "synchronous kernel needs one partition block per processor"
        );
        SyncSimulator {
            partition,
            machine,
            observe: Observe::Outputs,
            probe: Probe::disabled(),
            _values: PhantomData,
        }
    }

    /// Selects which nets to record waveforms for.
    pub fn with_observe(mut self, observe: Observe) -> Self {
        self.observe = observe;
        self
    }

    /// Attaches a trace probe. The virtual machine records charge, idle and
    /// barrier-wait spans on the modeled cost-unit timeline; the protocol
    /// adds dequeues, gate evaluations and cross-block message sends at the
    /// same timeline positions.
    pub fn with_probe(mut self, probe: Probe) -> Self {
        self.probe = probe;
        self
    }

    /// The partition driving gate placement.
    pub fn partition(&self) -> &Partition {
        &self.partition
    }
}

impl<V: LogicValue> Simulator<V> for SyncSimulator<V> {
    fn name(&self) -> String {
        format!("synchronous(P={})", self.machine.processors)
    }

    fn run(&self, circuit: &Circuit, stimulus: &Stimulus, until: VirtualTime) -> SimOutcome<V> {
        // Interpreted on purpose: the modeled kernels are the differential
        // reference the compiled paths are checked against.
        Fabric::new(circuit, &self.partition, 1, self.observe).run_modeled(
            stimulus,
            until,
            &self.probe,
            &BarrierProtocol,
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
    use parsim_partition::{ConePartitioner, GateWeights, Partitioner, RoundRobinPartitioner};

    fn partition(c: &Circuit, p: usize) -> Partition {
        ConePartitioner.partition(c, p, &GateWeights::uniform(c.len()))
    }

    fn check_equivalent<V: LogicValue>(c: &Circuit, stim: &Stimulus, until: u64, p: usize) {
        let sync = SyncSimulator::<V>::new(partition(c, p), MachineConfig::shared_memory(p))
            .with_observe(Observe::AllNets)
            .run(c, stim, VirtualTime::new(until));
        let seq = SequentialSimulator::<V>::new().with_observe(Observe::AllNets).run(
            c,
            stim,
            VirtualTime::new(until),
        );
        if let Some(d) = sync.divergence_from(&seq) {
            panic!("synchronous kernel diverged on {}: {d}", c.name());
        }
    }

    #[test]
    fn matches_sequential_on_c17() {
        check_equivalent::<Bit>(&bench::c17(), &Stimulus::random(5, 7), 200, 4);
        check_equivalent::<Logic4>(&bench::c17(), &Stimulus::counting(9), 300, 3);
    }

    #[test]
    fn matches_sequential_on_sequential_circuits() {
        let c = generate::lfsr(10, DelayModel::Unit);
        check_equivalent::<Bit>(&c, &Stimulus::quiet(1000).with_clock(4), 300, 4);
        let c = generate::counter(6, DelayModel::PerKind);
        check_equivalent::<Bit>(&c, &Stimulus::quiet(1000).with_clock(16), 600, 8);
    }

    #[test]
    fn matches_sequential_on_random_dags_with_heterogeneous_delays() {
        for seed in 0..4 {
            let c = generate::random_dag(&generate::RandomDagConfig {
                gates: 250,
                seq_fraction: 0.15,
                delays: DelayModel::Uniform { min: 1, max: 13, seed },
                seed,
                ..Default::default()
            });
            check_equivalent::<Logic4>(&c, &Stimulus::random(seed, 11).with_clock(6), 250, 8);
        }
    }

    #[test]
    fn modeled_speedup_above_one_on_wide_circuits() {
        let c = generate::array_multiplier(12, DelayModel::Unit);
        let p = 8;
        let out = SyncSimulator::<Bit>::new(partition(&c, p), MachineConfig::shared_memory(p)).run(
            &c,
            &Stimulus::random(3, 40),
            VirtualTime::new(800),
        );
        let speedup = out.stats.modeled_speedup().expect("modeled kernel reports speedup");
        assert!(speedup > 1.5, "expected parallel benefit, got {speedup:.2}");
        assert!(speedup <= p as f64 + 0.01, "speedup {speedup:.2} cannot beat P={p}");
        assert!(out.stats.barriers > 0);
    }

    #[test]
    fn bad_partition_hurts_modeled_performance() {
        // Round-robin (max cut) must send more messages than cones.
        let c = generate::mesh(16, 16, DelayModel::Unit);
        let stim = Stimulus::random(2, 25);
        let until = VirtualTime::new(500);
        let w = GateWeights::uniform(c.len());
        let good = SyncSimulator::<Bit>::new(
            parsim_partition::FiducciaMattheyses::default().partition(&c, 8, &w),
            MachineConfig::shared_memory(8),
        )
        .run(&c, &stim, until);
        let bad = SyncSimulator::<Bit>::new(
            RoundRobinPartitioner.partition(&c, 8, &w),
            MachineConfig::shared_memory(8),
        )
        .run(&c, &stim, until);
        assert!(
            bad.stats.messages_sent > good.stats.messages_sent,
            "round-robin should send more messages ({} vs {})",
            bad.stats.messages_sent,
            good.stats.messages_sent
        );
        assert_eq!(good.divergence_from(&bad), None, "partition must not affect results");
    }

    #[test]
    #[should_panic(expected = "one partition block per processor")]
    fn mismatched_partition_rejected() {
        let c = bench::c17();
        SyncSimulator::<Bit>::new(partition(&c, 4), MachineConfig::shared_memory(8));
    }
}
