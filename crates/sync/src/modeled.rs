//! The modeled synchronous kernel.

use parsim_runtime::{FabricKernel, Machine};

use crate::threaded::BarrierProtocol;

/// The synchronous global-clock kernel on the virtual multiprocessor: the
/// protocol [`ThreadedSyncSimulator`](crate::ThreadedSyncSimulator) runs on
/// threads, stepped by the fabric's modeled driver
/// ([`Fabric::run_modeled`](parsim_runtime::Fabric::run_modeled)) instead.
///
/// Each superstep: every processor retrieves its events at the common
/// simulated time, applies them, evaluates its affected gates, distributes
/// output events (paying message costs for cross-block fanout), and then all
/// processors barrier to agree on the next event time. Modeled time advances
/// per the [`MachineConfig`](parsim_machine::MachineConfig) price list;
/// logical results are bit-identical to the sequential reference.
///
/// See the crate docs for an example. Budgets, the artifact cache and
/// `try_run` belong to the threaded driver; the family has no granularity:
///
/// ```compile_fail,E0599
/// # let k: parsim_sync::SyncSimulator<parsim_logic::Bit> = todo!();
/// k.with_budget(parsim_core::RunBudget::UNLIMITED);
/// ```
/// ```compile_fail,E0599
/// # let k: parsim_sync::SyncSimulator<parsim_logic::Bit> = todo!();
/// k.with_compiled_cache("target/parsimc");
/// ```
/// ```compile_fail,E0599
/// # let k: parsim_sync::SyncSimulator<parsim_logic::Bit> = todo!();
/// k.try_run(todo!(), todo!(), todo!());
/// ```
/// ```compile_fail,E0599
/// # let k: parsim_sync::SyncSimulator<parsim_logic::Bit> = todo!();
/// k.with_granularity(2);
/// ```
pub type SyncSimulator<V> = FabricKernel<BarrierProtocol, Machine, V>;

#[cfg(test)]
mod tests {
    use super::*;
    use parsim_core::{Observe, SequentialSimulator, Simulator, Stimulus};
    use parsim_event::VirtualTime;
    use parsim_logic::{Bit, Logic4, LogicValue};
    use parsim_machine::MachineConfig;
    use parsim_netlist::{bench, generate, Circuit, DelayModel};
    use parsim_partition::Partition;
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
