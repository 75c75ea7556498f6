//! Property-based tests for the optimistic kernels: every configuration —
//! including pure unbounded Jefferson Time Warp on small circuits — commits
//! the sequential history.

use parsim_core::{Observe, SequentialSimulator, SimOutcome, Simulator, Stimulus};
use parsim_event::VirtualTime;
use parsim_logic::Logic4;
use parsim_machine::MachineConfig;
use parsim_netlist::generate::{random_dag, RandomDagConfig};
use parsim_netlist::{Circuit, DelayModel};
use parsim_optimistic::{
    BtbSettings, BtbSimulator, Cancellation, StateSaving, ThreadedBtbSimulator, TimeWarpSimulator,
};
use parsim_partition::{ContiguousPartitioner, GateWeights, Partition, Partitioner};
use proptest::prelude::*;

#[derive(Debug, Clone)]
struct Scenario {
    circuit: Circuit,
    stimulus: Stimulus,
    until: VirtualTime,
    processors: usize,
}

fn any_scenario() -> impl Strategy<Value = Scenario> {
    (20usize..120, 1u64..9, any::<u64>(), 2usize..5, 30u64..150, 1u64..8).prop_map(
        |(gates, max_delay, seed, processors, until, clock_half)| {
            let circuit = random_dag(&RandomDagConfig {
                gates,
                inputs: 12,
                seq_fraction: 0.15,
                delays: if max_delay == 1 {
                    DelayModel::Unit
                } else {
                    DelayModel::Uniform { min: 1, max: max_delay, seed }
                },
                seed,
                ..Default::default()
            });
            let stimulus = Stimulus::random(seed, 6).with_clock(clock_half);
            Scenario { circuit, stimulus, until: VirtualTime::new(until), processors }
        },
    )
}

fn oracle(s: &Scenario) -> SimOutcome<Logic4> {
    SequentialSimulator::<Logic4>::new().with_observe(Observe::AllNets).run(
        &s.circuit,
        &s.stimulus,
        s.until,
    )
}

fn partition(s: &Scenario) -> Partition {
    ContiguousPartitioner.partition(
        &s.circuit,
        s.processors,
        &GateWeights::uniform(s.circuit.len()),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(20))]

    /// Pure Jefferson: unbounded optimism, aggressive cancellation. The
    /// configuration that *can* echo-storm on large scattered workloads
    /// must still be exactly correct (and converge) on small ones.
    #[test]
    fn unbounded_aggressive_time_warp_is_correct(s in any_scenario()) {
        let out = TimeWarpSimulator::<Logic4>::new(
            partition(&s),
            MachineConfig::shared_memory(s.processors),
        )
        .with_unbounded_optimism()
        .with_cancellation(Cancellation::Aggressive)
        .with_gvt_interval(8)
        .with_observe(Observe::AllNets)
        .run(&s.circuit, &s.stimulus, s.until);
        prop_assert_eq!(out.divergence_from(&oracle(&s)), None);
    }

    /// Copy-state-saving rollback must restore *exactly* the same state as
    /// incremental unwinding: both corners agree with the oracle and with
    /// each other, statistics included (they execute the same schedule).
    #[test]
    fn state_saving_corners_are_equivalent(s in any_scenario()) {
        let make = |saving| {
            TimeWarpSimulator::<Logic4>::new(
                partition(&s),
                MachineConfig::shared_memory(s.processors),
            )
            .with_state_saving(saving)
            .with_observe(Observe::AllNets)
            .run(&s.circuit, &s.stimulus, s.until)
        };
        let copy = make(StateSaving::Copy);
        let incr = make(StateSaving::Incremental);
        let reference = oracle(&s);
        prop_assert_eq!(copy.divergence_from(&reference), None);
        prop_assert_eq!(incr.divergence_from(&reference), None);
        // The committed history is the sequential history in both corners,
        // so committed event counts agree exactly. (Rollback counts need
        // not: state-saving costs shift the modeled clocks, which changes
        // message timing and hence the speculation pattern.)
        prop_assert_eq!(copy.stats.events_processed, incr.stats.events_processed);
    }

    /// Breathing time buckets never emits an anti-message and still commits
    /// the oracle history at every granularity, on both drivers.
    #[test]
    fn btb_is_correct_and_risk_free(s in any_scenario(), granularity in 1usize..4) {
        let machine = MachineConfig::shared_memory(s.processors);
        let kernels: [Box<dyn Simulator<Logic4>>; 2] = [
            Box::new(
                BtbSimulator::new(partition(&s), machine)
                    .with_granularity(granularity)
                    .with_observe(Observe::AllNets),
            ),
            Box::new(
                ThreadedBtbSimulator::new(partition(&s))
                    .with_granularity(granularity)
                    .with_observe(Observe::AllNets),
            ),
        ];
        let reference = oracle(&s);
        for kernel in kernels {
            let out = kernel.run(&s.circuit, &s.stimulus, s.until);
            prop_assert_eq!(out.stats.anti_messages, 0);
            prop_assert_eq!(out.divergence_from(&reference), None);
        }
    }

    /// Time Warp efficiency accounting is coherent: committed ≤ executed,
    /// and with no rollbacks the two are equal.
    #[test]
    fn efficiency_accounting_is_coherent(s in any_scenario()) {
        let out = TimeWarpSimulator::<Logic4>::new(
            partition(&s),
            MachineConfig::shared_memory(s.processors),
        )
        .run(&s.circuit, &s.stimulus, s.until);
        let eff = out.stats.efficiency();
        prop_assert!((0.0..=1.0).contains(&eff));
        if out.stats.rollbacks == 0 {
            prop_assert_eq!(out.stats.events_rolled_back, 0);
            prop_assert!((eff - 1.0).abs() < 1e-12);
        }
    }
}
