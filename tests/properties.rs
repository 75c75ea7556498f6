//! Property-based cross-kernel equivalence: arbitrary circuits, stimuli,
//! partitions, processor counts, LP granularities and Time Warp
//! configurations — every kernel commits the same history as the sequential
//! reference.

use parsim::prelude::*;
use proptest::prelude::*;

#[derive(Debug, Clone)]
struct Scenario {
    circuit: Circuit,
    stimulus: Stimulus,
    until: VirtualTime,
    processors: usize,
    partitioner_seed: u64,
}

fn any_scenario() -> impl Strategy<Value = Scenario> {
    (
        30usize..250,
        2usize..16,
        0.0f64..0.25,
        1u64..16,
        any::<u64>(),
        2usize..7,
        30u64..250,
        1u64..12,
        0.05f64..1.0,
    )
        .prop_map(
            |(gates, inputs, seq, max_delay, seed, processors, until, clock_half, toggle)| {
                let circuit = generate::random_dag(&generate::RandomDagConfig {
                    gates,
                    inputs,
                    seq_fraction: seq,
                    delays: if max_delay == 1 {
                        DelayModel::Unit
                    } else {
                        DelayModel::Uniform { min: 1, max: max_delay, seed }
                    },
                    seed,
                    ..Default::default()
                });
                let stimulus =
                    Stimulus::random_with_toggle(seed ^ 0xABCD, 7, toggle).with_clock(clock_half);
                Scenario {
                    circuit,
                    stimulus,
                    until: VirtualTime::new(until),
                    processors,
                    partitioner_seed: seed,
                }
            },
        )
}

fn reference(s: &Scenario) -> SimOutcome<Logic4> {
    SequentialSimulator::<Logic4>::new().with_observe(Observe::AllNets).run(
        &s.circuit,
        &s.stimulus,
        s.until,
    )
}

fn partition_for(s: &Scenario) -> Partition {
    // Rotate through partitioners based on the seed, covering the whole
    // family over the test corpus.
    let ps = all_partitioners(s.partitioner_seed);
    let p = &ps[(s.partitioner_seed % ps.len() as u64) as usize];
    p.partition(&s.circuit, s.processors, &GateWeights::uniform(s.circuit.len()))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn synchronous_equals_sequential(s in any_scenario()) {
        let out = SyncSimulator::<Logic4>::new(
            partition_for(&s),
            MachineConfig::shared_memory(s.processors),
        )
        .with_observe(Observe::AllNets)
        .run(&s.circuit, &s.stimulus, s.until);
        prop_assert_eq!(out.divergence_from(&reference(&s)), None);
    }

    #[test]
    fn conservative_equals_sequential(s in any_scenario(), granularity in 1usize..5) {
        for strategy in [DeadlockStrategy::NullMessages, DeadlockStrategy::DetectAndRecover] {
            let out = ConservativeSimulator::<Logic4>::new(
                partition_for(&s),
                MachineConfig::shared_memory(s.processors),
            )
            .with_strategy(strategy)
            .with_granularity(granularity)
            .with_observe(Observe::AllNets)
            .run(&s.circuit, &s.stimulus, s.until);
            prop_assert_eq!(out.divergence_from(&reference(&s)), None);
        }
    }

    #[test]
    fn time_warp_equals_sequential(
        s in any_scenario(),
        copy in any::<bool>(),
        lazy in any::<bool>(),
        gvt in 4u64..64,
        window in prop::option::of(4u64..64),
    ) {
        let mut sim = TimeWarpSimulator::<Logic4>::new(
            partition_for(&s),
            MachineConfig::shared_memory(s.processors),
        )
        .with_state_saving(if copy { StateSaving::Copy } else { StateSaving::Incremental })
        .with_cancellation(if lazy { Cancellation::Lazy } else { Cancellation::Aggressive })
        .with_gvt_interval(gvt)
        .with_observe(Observe::AllNets);
        if let Some(w) = window {
            sim = sim.with_window(w);
        }
        let out = sim.run(&s.circuit, &s.stimulus, s.until);
        prop_assert_eq!(out.divergence_from(&reference(&s)), None);
    }

    #[test]
    fn threaded_kernels_equal_sequential(s in any_scenario()) {
        let part = partition_for(&s);
        let oracle = reference(&s);
        let sync = ThreadedSyncSimulator::<Logic4>::new(part.clone())
            .with_observe(Observe::AllNets)
            .run(&s.circuit, &s.stimulus, s.until);
        prop_assert_eq!(sync.divergence_from(&oracle), None);
        let cons = ThreadedConservativeSimulator::<Logic4>::new(part.clone())
            .with_observe(Observe::AllNets)
            .run(&s.circuit, &s.stimulus, s.until);
        prop_assert_eq!(cons.divergence_from(&oracle), None);
        let warp = ThreadedTimeWarpSimulator::<Logic4>::new(part)
            .with_observe(Observe::AllNets)
            .run(&s.circuit, &s.stimulus, s.until);
        prop_assert_eq!(warp.divergence_from(&oracle), None);
    }

    /// Modeled kernels are bit-deterministic: run twice, get identical
    /// outcomes *including statistics*.
    #[test]
    fn modeled_kernels_are_deterministic(s in any_scenario()) {
        let part = partition_for(&s);
        let machine = MachineConfig::shared_memory(s.processors);
        let kernels: Vec<Box<dyn Simulator<Logic4>>> = vec![
            Box::new(SyncSimulator::new(part.clone(), machine)),
            Box::new(ConservativeSimulator::new(part.clone(), machine)),
            Box::new(TimeWarpSimulator::new(part, machine)),
        ];
        for kernel in kernels {
            let a = kernel.run(&s.circuit, &s.stimulus, s.until);
            let b = kernel.run(&s.circuit, &s.stimulus, s.until);
            prop_assert_eq!(a.stats, b.stats, "{} statistics not reproducible", kernel.name());
            prop_assert_eq!(a.final_values, b.final_values);
        }
    }
}

fn any_unit_dag() -> impl Strategy<Value = generate::RandomDagConfig> {
    (20usize..200, 2usize..12, 0.0f64..0.3, any::<u64>()).prop_map(
        |(gates, inputs, seq_fraction, seed)| generate::RandomDagConfig {
            gates,
            inputs,
            seq_fraction,
            seed,
            ..Default::default()
        },
    )
}

fn any_clocked_stimulus() -> impl Strategy<Value = Stimulus> {
    (any::<u64>(), 1u64..20, 0.0f64..=1.0, 1u64..10).prop_map(
        |(seed, interval, toggle, clock_half)| {
            Stimulus::random_with_toggle(seed, interval, toggle).with_clock(clock_half)
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Oblivious (no event queue) and event-driven sequential kernels are
    /// bit-identical on unit-delay circuits — every net, every transition.
    #[test]
    fn oblivious_equals_sequential(
        cfg in any_unit_dag(),
        stim in any_clocked_stimulus(),
        until in 20u64..200,
    ) {
        let c = generate::random_dag(&cfg);
        let until = VirtualTime::new(until);
        let a = ObliviousSimulator::<Logic4>::new()
            .with_observe(Observe::AllNets)
            .run(&c, &stim, until);
        let b = SequentialSimulator::<Logic4>::new()
            .with_observe(Observe::AllNets)
            .run(&c, &stim, until);
        prop_assert_eq!(a.divergence_from(&b), None);
    }
}
