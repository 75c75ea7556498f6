//! Property-based tests for the conservative kernels: both deadlock
//! disciplines, arbitrary granularities, always equal to the oracle — and
//! the protocol-level safety invariants hold by construction (the kernel
//! debug-asserts them; these tests drive enough randomized traffic to make
//! that meaningful).

use parsim_conservative::{
    ConservativeSettings, ConservativeSimulator, DeadlockStrategy, ThreadedConservativeSimulator,
};
use parsim_core::{Observe, SequentialSimulator, SimOutcome, Simulator, Stimulus};
use parsim_event::VirtualTime;
use parsim_logic::Logic4;
use parsim_machine::MachineConfig;
use parsim_netlist::generate::{random_dag, RandomDagConfig};
use parsim_netlist::{Circuit, DelayModel};
use parsim_partition::{GateWeights, Partition, Partitioner, StringPartitioner};
use proptest::prelude::*;

#[derive(Debug, Clone)]
struct Scenario {
    circuit: Circuit,
    stimulus: Stimulus,
    until: VirtualTime,
    processors: usize,
}

fn any_scenario() -> impl Strategy<Value = Scenario> {
    (20usize..150, 1u64..10, any::<u64>(), 2usize..6, 40u64..200, 1u64..9).prop_map(
        |(gates, max_delay, seed, processors, until, clock_half)| {
            let circuit = random_dag(&RandomDagConfig {
                gates,
                inputs: 10,
                seq_fraction: 0.2,
                delays: if max_delay == 1 {
                    DelayModel::Unit
                } else {
                    DelayModel::Uniform { min: 1, max: max_delay, seed }
                },
                seed,
                ..Default::default()
            });
            let stimulus = Stimulus::random(seed, 7).with_clock(clock_half);
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
    StringPartitioner.partition(&s.circuit, s.processors, &GateWeights::uniform(s.circuit.len()))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(20))]

    /// Null-message avoidance, arbitrary LP granularity.
    #[test]
    fn null_messages_always_match_oracle(s in any_scenario(), granularity in 1usize..6) {
        let out = ConservativeSimulator::<Logic4>::new(
            partition(&s),
            MachineConfig::shared_memory(s.processors),
        )
        .with_granularity(granularity)
        .with_observe(Observe::AllNets)
        .run(&s.circuit, &s.stimulus, s.until);
        prop_assert_eq!(out.divergence_from(&oracle(&s)), None);
    }

    /// Deadlock detection and recovery: zero nulls by construction, same
    /// history, and it must actually have recovered at least once whenever
    /// the LP graph has a channel (i.e. it really did block).
    #[test]
    fn deadlock_recovery_always_matches_oracle(s in any_scenario()) {
        let out = ConservativeSimulator::<Logic4>::new(
            partition(&s),
            MachineConfig::shared_memory(s.processors),
        )
        .with_strategy(DeadlockStrategy::DetectAndRecover)
        .with_observe(Observe::AllNets)
        .run(&s.circuit, &s.stimulus, s.until);
        prop_assert_eq!(out.stats.null_messages, 0);
        if out.stats.messages_sent > 0 {
            prop_assert!(out.stats.gvt_rounds > 0, "cross-LP traffic requires recoveries");
        }
        prop_assert_eq!(out.divergence_from(&oracle(&s)), None);
    }

    /// The threaded kernel agrees with the modeled kernel's logical results
    /// (they share the LP state machine, but schedule activations very
    /// differently).
    #[test]
    fn threaded_matches_modeled(s in any_scenario()) {
        let part = partition(&s);
        let modeled = ConservativeSimulator::<Logic4>::new(
            part.clone(),
            MachineConfig::shared_memory(s.processors),
        )
        .with_observe(Observe::AllNets)
        .run(&s.circuit, &s.stimulus, s.until);
        let threaded = ThreadedConservativeSimulator::<Logic4>::new(part)
            .with_observe(Observe::AllNets)
            .run(&s.circuit, &s.stimulus, s.until);
        prop_assert_eq!(threaded.divergence_from(&modeled), None);
        // Identical protocol, identical logical message counts.
        prop_assert_eq!(threaded.stats.events_processed, modeled.stats.events_processed);
    }
}
