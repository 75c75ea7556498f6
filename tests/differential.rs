//! The grand cross-kernel differential test: every kernel in the workspace
//! must commit the identical history on a shared set of circuits and
//! stimuli.
//!
//! This is the repository's central correctness claim: the §IV
//! synchronization disciplines are *interchangeable* — they differ in how
//! they find parallelism, never in what they compute.

use parsim::prelude::*;

/// Every parallel kernel over the given partition (the sequential
/// reference is the oracle they are checked against).
fn all_kernels(partition: &Partition, processors: usize) -> Vec<Box<dyn Simulator<Logic4>>> {
    let machine = MachineConfig::shared_memory(processors);
    vec![
        Box::new(SyncSimulator::new(partition.clone(), machine).with_observe(Observe::AllNets)),
        Box::new(ThreadedSyncSimulator::new(partition.clone()).with_observe(Observe::AllNets)),
        Box::new(
            ConservativeSimulator::new(partition.clone(), machine).with_observe(Observe::AllNets),
        ),
        Box::new(
            ConservativeSimulator::new(partition.clone(), machine)
                .with_strategy(DeadlockStrategy::DetectAndRecover)
                .with_observe(Observe::AllNets),
        ),
        Box::new(
            ThreadedConservativeSimulator::new(partition.clone()).with_observe(Observe::AllNets),
        ),
        Box::new(TimeWarpSimulator::new(partition.clone(), machine).with_observe(Observe::AllNets)),
        Box::new(
            TimeWarpSimulator::new(partition.clone(), machine)
                .with_state_saving(StateSaving::Copy)
                .with_cancellation(Cancellation::Lazy)
                .with_gvt_interval(8)
                .with_observe(Observe::AllNets),
        ),
        Box::new(ThreadedTimeWarpSimulator::new(partition.clone()).with_observe(Observe::AllNets)),
    ]
}

fn cross_check(circuit: &Circuit, stimulus: &Stimulus, until: u64, processors: usize) {
    let until = VirtualTime::new(until);
    let weights = GateWeights::uniform(circuit.len());
    let partition = FiducciaMattheyses::default().partition(circuit, processors, &weights);
    let reference = SequentialSimulator::<Logic4>::new()
        .with_observe(Observe::AllNets)
        .run(circuit, stimulus, until);
    assert!(
        reference.stats.events_processed > 0,
        "vacuous test on {}: no events at all",
        circuit.name()
    );
    for kernel in all_kernels(&partition, processors) {
        let out = kernel.run(circuit, stimulus, until);
        if let Some(d) = out.divergence_from(&reference) {
            panic!("{} diverged from sequential on {}: {d}", kernel.name(), circuit.name());
        }
    }
}

#[test]
fn c17_all_kernels() {
    cross_check(&bench::c17(), &Stimulus::random(11, 9), 250, 3);
}

#[test]
fn s27ish_all_kernels() {
    cross_check(&bench::s27ish(), &Stimulus::random(5, 16).with_clock(8), 400, 3);
}

#[test]
fn adder_all_kernels() {
    let c = generate::ripple_adder(12, DelayModel::PerKind);
    cross_check(&c, &Stimulus::counting(40), 800, 4);
}

#[test]
fn multiplier_all_kernels() {
    let c = generate::array_multiplier(8, DelayModel::Unit);
    cross_check(&c, &Stimulus::random(3, 30), 600, 8);
}

#[test]
fn lfsr_all_kernels() {
    let c = generate::lfsr(12, DelayModel::Unit);
    cross_check(&c, &Stimulus::quiet(10_000).with_clock(6), 500, 4);
}

#[test]
fn counter_all_kernels() {
    let c = generate::counter(8, DelayModel::Unit);
    cross_check(&c, &Stimulus::quiet(10_000).with_clock(8), 600, 4);
}

#[test]
fn ring_all_kernels() {
    let c = generate::ring(24, DelayModel::Unit);
    cross_check(&c, &Stimulus::random(9, 20).with_clock(10), 500, 6);
}

#[test]
fn mesh_all_kernels() {
    let c = generate::mesh(12, 12, DelayModel::Unit);
    cross_check(&c, &Stimulus::random(2, 15), 300, 8);
}

#[test]
fn heterogeneous_delay_dag_all_kernels() {
    for seed in 0..3 {
        let c = generate::random_dag(&generate::RandomDagConfig {
            gates: 300,
            inputs: 24,
            seq_fraction: 0.15,
            delays: DelayModel::Uniform { min: 1, max: 17, seed },
            seed,
            ..Default::default()
        });
        cross_check(&c, &Stimulus::random(seed, 13).with_clock(7), 350, 5);
    }
}

#[test]
fn tree_all_kernels() {
    let c = generate::tree(GateKind::Xor, 64, DelayModel::Unit);
    cross_check(&c, &Stimulus::random(8, 12), 300, 4);
}
