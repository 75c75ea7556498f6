//! Cross-kernel equivalence on the shared runtime fabric.
//!
//! Every threaded kernel now runs on `parsim_runtime::Fabric`; these tests
//! pin the fabric's end-to-end guarantees: identical waveforms across all
//! kernels at several worker counts (override the list with
//! `PARSIM_TEST_THREADS=1,2,8`), worker-count edge cases (more workers than
//! LPs, empty partition blocks), and clean termination when the stimulus
//! contributes no events at all.

use parsim::prelude::*;

/// Worker counts to exercise, from `PARSIM_TEST_THREADS` (comma-separated)
/// or a default sweep. Every entry must parse to a count ≥ 1: silently
/// dropping a bad entry would run fewer configurations than CI asked for
/// with no signal, so any invalid entry fails the suite loudly.
fn thread_counts() -> Vec<usize> {
    match std::env::var("PARSIM_TEST_THREADS") {
        Ok(list) => {
            let parsed: Vec<usize> = list
                .split(',')
                .map(|t| {
                    let n: usize = t.trim().parse().unwrap_or_else(|e| {
                        panic!("invalid PARSIM_TEST_THREADS entry {t:?} in {list:?}: {e}")
                    });
                    assert!(n >= 1, "PARSIM_TEST_THREADS entry {t:?} in {list:?} must be >= 1");
                    n
                })
                .collect();
            assert!(!parsed.is_empty(), "PARSIM_TEST_THREADS has no entries: {list:?}");
            parsed
        }
        Err(_) => vec![1, 2, 4, 8],
    }
}

/// All threaded kernels over the given partition.
fn threaded_kernels(partition: &Partition) -> Vec<Box<dyn Simulator<Logic4>>> {
    vec![
        Box::new(ThreadedSyncSimulator::new(partition.clone()).with_observe(Observe::AllNets)),
        Box::new(
            ThreadedConservativeSimulator::new(partition.clone()).with_observe(Observe::AllNets),
        ),
        Box::new(
            ThreadedConservativeSimulator::new(partition.clone())
                .with_strategy(DeadlockStrategy::DetectAndRecover)
                .with_observe(Observe::AllNets),
        ),
        Box::new(ThreadedTimeWarpSimulator::new(partition.clone()).with_observe(Observe::AllNets)),
        Box::new(ThreadedBtbSimulator::new(partition.clone()).with_observe(Observe::AllNets)),
    ]
}

fn check_all_threaded(circuit: &Circuit, stimulus: &Stimulus, until: u64, partition: &Partition) {
    let until = VirtualTime::new(until);
    let reference = SequentialSimulator::<Logic4>::new()
        .with_observe(Observe::AllNets)
        .run(circuit, stimulus, until);
    for kernel in threaded_kernels(partition) {
        let out = kernel.run(circuit, stimulus, until);
        if let Some(d) = out.divergence_from(&reference) {
            panic!(
                "{} diverged from sequential on {} (P = {}): {d}",
                kernel.name(),
                circuit.name(),
                partition.blocks()
            );
        }
    }
}

#[test]
fn waveforms_identical_across_kernels_and_thread_counts() {
    let circuits = [
        generate::lfsr(8, DelayModel::Unit),
        generate::random_dag(&generate::RandomDagConfig {
            gates: 160,
            seq_fraction: 0.15,
            delays: DelayModel::Uniform { min: 1, max: 9, seed: 11 },
            seed: 11,
            ..Default::default()
        }),
    ];
    for c in &circuits {
        let stim = Stimulus::random(5, 10).with_clock(6);
        let weights = GateWeights::uniform(c.len());
        for p in thread_counts() {
            let part = FiducciaMattheyses::default().partition(c, p, &weights);
            check_all_threaded(c, &stim, 250, &part);
        }
    }
}

#[test]
fn more_workers_than_gates_is_harmless() {
    // c17 has 13 nets; 16 workers guarantees empty blocks even before the
    // partitioner balances anything.
    let c = bench::c17();
    let part = Partition::new(16, (0..c.len()).map(|i| i % 16).collect()).expect("valid");
    check_all_threaded(&c, &Stimulus::random(3, 8), 200, &part);
}

#[test]
fn explicitly_empty_partition_blocks_are_harmless() {
    // Six declared blocks, gates assigned to blocks 0 and 1 only: workers
    // 2..5 own no LP gates and must still join every round and terminate.
    let c = generate::ripple_adder(8, DelayModel::PerKind);
    let part = Partition::new(6, (0..c.len()).map(|i| i % 2).collect()).expect("valid");
    check_all_threaded(&c, &Stimulus::counting(25), 400, &part);
}

/// `Simulator::name` labels the rows of `results/exp_threaded.txt`, which
/// the bench drift guard pins; every kernel alias keeps its string byte for
/// byte.
#[test]
fn kernel_names_are_pinned() {
    let c = bench::c17();
    let part = ConePartitioner.partition(&c, 2, &GateWeights::uniform(c.len()));
    let m = MachineConfig::shared_memory(2);
    let recover = DeadlockStrategy::DetectAndRecover;
    let names = [
        SyncSimulator::<Logic4>::new(part.clone(), m).name(),
        ConservativeSimulator::<Logic4>::new(part.clone(), m).name(),
        ConservativeSimulator::<Logic4>::new(part.clone(), m).with_strategy(recover).name(),
        ThreadedSyncSimulator::<Logic4>::new(part.clone()).name(),
        ThreadedConservativeSimulator::<Logic4>::new(part.clone()).with_strategy(recover).name(),
        ThreadedTimeWarpSimulator::<Logic4>::new(part.clone()).name(),
        BtbSimulator::<Logic4>::new(part.clone(), m).name(),
        ThreadedBtbSimulator::<Logic4>::new(part).name(),
    ];
    assert_eq!(
        names,
        [
            "synchronous(P=2)",
            "conservative-null-msg(P=2)",
            "conservative-deadlock-recovery(P=2)",
            "threaded-synchronous(P=2)",
            "threaded-conservative(P=2)",
            "threaded-time-warp(P=2)",
            "breathing-time-buckets(P=2)",
            "threaded-breathing-time-buckets(P=2)",
        ]
    );
}

#[test]
fn zero_event_stimulus_terminates_cleanly() {
    // A quiet stimulus with no clock contributes nothing beyond the initial
    // t = 0 evaluation; every kernel must settle and stop rather than spin
    // or deadlock, and still agree on the settled values.
    let c = generate::ripple_adder(6, DelayModel::Unit);
    let part = Partition::new(4, (0..c.len()).map(|i| i % 4).collect()).expect("valid");
    let stim = Stimulus::quiet(1000);
    check_all_threaded(&c, &stim, 300, &part);

    // And the run is genuinely bounded: the sync kernel's round count is a
    // handful, not ~`until`.
    let out =
        ThreadedSyncSimulator::<Logic4>::new(part.clone()).run(&c, &stim, VirtualTime::new(300));
    assert!(
        out.stats.barriers < 64,
        "quiet run should quiesce quickly, took {} rounds",
        out.stats.barriers
    );
}
