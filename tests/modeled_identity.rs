//! Pins the modeled synchronous and conservative kernels to the numbers
//! they produced when each still carried its own event loop (literals
//! captured at commit 9d674b8). The kernels now run the fabric's protocol
//! objects under the modeled driver; every Figure-1 number is a function of
//! the statistics pinned here, so a port that moves none of them moved no
//! table either. The threaded conservative and breathing-time-buckets
//! kernels are held to the modeled driver's counters, and the threaded
//! kernels to their own from run to run.

use parsim::prelude::*;

/// `modeled_makespan`, `modeled_work`, `messages_sent`, `null_messages`,
/// `barriers`, `gate_evaluations`, `events_scheduled`, `gvt_rounds`.
type Row = [u64; 8];

fn row(s: &SimStats) -> Row {
    [
        s.modeled_makespan,
        s.modeled_work,
        s.messages_sent,
        s.null_messages,
        s.barriers,
        s.gate_evaluations,
        s.events_scheduled,
        s.gvt_rounds,
    ]
}

struct Subject {
    name: &'static str,
    circuit: Circuit,
    stimulus: Stimulus,
    until: VirtualTime,
}

fn subjects() -> Vec<Subject> {
    vec![
        Subject {
            name: "c17",
            circuit: bench::c17(),
            stimulus: Stimulus::random(5, 7),
            until: VirtualTime::new(200),
        },
        Subject {
            name: "dag250",
            circuit: generate::random_dag(&generate::RandomDagConfig {
                gates: 250,
                seq_fraction: 0.15,
                delays: DelayModel::Uniform { min: 1, max: 13, seed: 3 },
                seed: 3,
                ..Default::default()
            }),
            stimulus: Stimulus::random(3, 11).with_clock(6),
            until: VirtualTime::new(250),
        },
        Subject {
            name: "lfsr10",
            circuit: generate::lfsr(10, DelayModel::Unit),
            stimulus: Stimulus::quiet(1000).with_clock(4),
            until: VirtualTime::new(300),
        },
    ]
}

/// Every (subject × machine × kernel configuration) cell for one value
/// system, in a fixed order.
fn measure<V: LogicValue>() -> Vec<(String, Row)> {
    let mut rows = Vec::new();
    for s in subjects() {
        for (machine_name, machine) in [
            ("sm8", MachineConfig::shared_memory(8)),
            ("lan4", MachineConfig::workstation_cluster(4)),
        ] {
            let weights = GateWeights::uniform(s.circuit.len());
            let part =
                FiducciaMattheyses::default().partition(&s.circuit, machine.processors, &weights);
            let mut cell = |kernel: &str, out: SimOutcome<V>| {
                rows.push((format!("{}/{machine_name}/{kernel}", s.name), row(&out.stats)));
            };
            cell(
                "sync",
                SyncSimulator::<V>::new(part.clone(), machine).run(
                    &s.circuit,
                    &s.stimulus,
                    s.until,
                ),
            );
            for (strategy_name, strategy) in [
                ("null", DeadlockStrategy::NullMessages),
                ("recover", DeadlockStrategy::DetectAndRecover),
            ] {
                for granularity in [1, 4] {
                    cell(
                        &format!("cmb-{strategy_name}-g{granularity}"),
                        ConservativeSimulator::<V>::new(part.clone(), machine)
                            .with_strategy(strategy)
                            .with_granularity(granularity)
                            .run(&s.circuit, &s.stimulus, s.until),
                    );
                }
            }
        }
    }
    rows
}

fn check(system: &str, actual: &[(String, Row)], pinned: &[(&str, Row)]) {
    let same = actual.len() == pinned.len()
        && actual.iter().zip(pinned).all(|((an, ar), (pn, pr))| an == pn && ar == pr);
    if !same {
        let mut table = String::new();
        for (name, r) in actual {
            table.push_str(&format!("    ({name:?}, {r:?}),\n"));
        }
        let moved: Vec<&str> = actual
            .iter()
            .zip(pinned)
            .filter(|((_, ar), (_, pr))| ar != pr)
            .map(|((an, _), _)| an.as_str())
            .collect();
        panic!("{system}: modeled statistics moved in {moved:?}; the kernels now print\n{table}");
    }
}

#[test]
fn bit_statistics_are_pinned() {
    check("Bit", &measure::<Bit>(), PINNED);
}

#[test]
fn logic4_statistics_are_pinned() {
    check("Logic4", &measure::<Logic4>(), PINNED);
}

/// The one counter the port redefined: modeled synchronous
/// `events_processed` used to count each net once per step; it now counts
/// every per-worker delivery, exactly as the threaded kernel does — they
/// are the same protocol object.
#[test]
fn modeled_and_threaded_sync_count_the_same_events() {
    for s in subjects() {
        let weights = GateWeights::uniform(s.circuit.len());
        let part = FiducciaMattheyses::default().partition(&s.circuit, 4, &weights);
        let modeled = SyncSimulator::<Logic4>::new(part.clone(), MachineConfig::shared_memory(4))
            .run(&s.circuit, &s.stimulus, s.until);
        let threaded =
            ThreadedSyncSimulator::<Logic4>::new(part).run(&s.circuit, &s.stimulus, s.until);
        assert_eq!(
            modeled.stats.events_processed, threaded.stats.events_processed,
            "{}: modeled and threaded synchronous kernels disagree on events_processed",
            s.name
        );
    }
}

/// What the conservative protocol counts, driver-independent since the
/// mesh seals every round: `null_messages`, `messages_sent`,
/// `events_processed`, `gate_evaluations`, `events_scheduled`, `gvt_rounds`.
fn cmb_counters(s: &SimStats) -> [u64; 6] {
    [
        s.null_messages,
        s.messages_sent,
        s.events_processed,
        s.gate_evaluations,
        s.events_scheduled,
        s.gvt_rounds,
    ]
}

fn cmb_subject(delays: DelayModel) -> Circuit {
    generate::random_dag(&generate::RandomDagConfig {
        gates: 600,
        seq_fraction: 0.1,
        delays,
        seed: 15,
        ..Default::default()
    })
}

/// The threaded conservative kernel is the modeled one on real threads:
/// with round-strict delivery every LP sees the same inbox in the same
/// round on both drivers, so every protocol counter — not just the
/// committed history — is equal, cell for cell. Before the round seal a
/// late drain consumed same-round nulls and P=2 reported half the nulls
/// of the modeled run.
#[test]
fn threaded_conservative_counts_what_the_modeled_kernel_counts() {
    let stimulus = Stimulus::random(15, 9).with_clock(5);
    let until = VirtualTime::new(120);
    for (delay_name, delays) in [
        ("unit", DelayModel::Unit),
        ("uniform1-5", DelayModel::Uniform { min: 1, max: 5, seed: 15 }),
    ] {
        let circuit = cmb_subject(delays);
        let weights = GateWeights::uniform(circuit.len());
        for workers in [2, 3, 4] {
            let part = FiducciaMattheyses::default().partition(&circuit, workers, &weights);
            for strategy in [DeadlockStrategy::NullMessages, DeadlockStrategy::DetectAndRecover] {
                for granularity in [1, 2, 4] {
                    let cell = format!("{delay_name}/P{workers}/{strategy:?}/g{granularity}");
                    let modeled = ConservativeSimulator::<Logic4>::new(
                        part.clone(),
                        MachineConfig::shared_memory(workers),
                    )
                    .with_strategy(strategy)
                    .with_granularity(granularity)
                    .run(&circuit, &stimulus, until);
                    let threaded = ThreadedConservativeSimulator::<Logic4>::new(part.clone())
                        .with_strategy(strategy)
                        .with_granularity(granularity)
                        .run(&circuit, &stimulus, until);
                    assert_eq!(
                        cmb_counters(&threaded.stats),
                        cmb_counters(&modeled.stats),
                        "{cell}: threaded vs modeled"
                    );
                }
            }
        }
    }
}

/// Run-to-run: the threaded kernels' statistics no longer depend on which
/// worker reaches its drain first. Conservative counters repeat exactly
/// (before the seal, P=4 gave a different null count on every run), and so
/// does everything threaded Time Warp counts — its rollbacks are decided by
/// which stragglers a round's inbox holds, which is now fixed.
#[test]
fn threaded_statistics_repeat_exactly() {
    let circuit = cmb_subject(DelayModel::Uniform { min: 1, max: 5, seed: 15 });
    let stimulus = Stimulus::random(15, 9).with_clock(5);
    let until = VirtualTime::new(120);
    let weights = GateWeights::uniform(circuit.len());
    let part = FiducciaMattheyses::default().partition(&circuit, 4, &weights);

    let cmb = ThreadedConservativeSimulator::<Logic4>::new(part.clone());
    let first = cmb.run(&circuit, &stimulus, until).stats;
    assert!(first.null_messages > 0, "the cell must exercise null messages");
    let tw = ThreadedTimeWarpSimulator::<Logic4>::new(part);
    let tw_first = tw.run(&circuit, &stimulus, until).stats;
    assert!(tw_first.rollbacks > 0, "the cell must exercise rollbacks");
    for run in 2..=20 {
        assert_eq!(cmb.run(&circuit, &stimulus, until).stats, first, "conservative, run {run}");
        assert_eq!(tw.run(&circuit, &stimulus, until).stats, tw_first, "time warp, run {run}");
    }
}

/// What the breathing protocol counts, driver-independent because each
/// breath is one sealed round: `barriers` (rounds), `messages_sent`,
/// `gate_evaluations`, `rollbacks`, `events_rolled_back`.
fn btb_counters(s: &SimStats) -> [u64; 5] {
    [s.barriers, s.messages_sent, s.gate_evaluations, s.rollbacks, s.events_rolled_back]
}

/// Threaded breathing time buckets is the modeled kernel on real threads:
/// the same horizon, the same rollbacks, the same releases, breath for
/// breath — P = 1 included, where no send is ever held.
#[test]
fn threaded_btb_counts_what_the_modeled_kernel_counts() {
    let stimulus = Stimulus::random(15, 9).with_clock(5);
    let until = VirtualTime::new(120);
    let circuit = cmb_subject(DelayModel::Uniform { min: 1, max: 5, seed: 15 });
    let weights = GateWeights::uniform(circuit.len());
    let mut rolled_back = false;
    for workers in [1, 2, 3, 4] {
        let part = FiducciaMattheyses::default().partition(&circuit, workers, &weights);
        for granularity in [1, 2] {
            let modeled =
                BtbSimulator::<Logic4>::new(part.clone(), MachineConfig::shared_memory(workers))
                    .with_granularity(granularity)
                    .run(&circuit, &stimulus, until);
            let threaded = ThreadedBtbSimulator::<Logic4>::new(part.clone())
                .with_granularity(granularity)
                .run(&circuit, &stimulus, until);
            assert_eq!(
                btb_counters(&threaded.stats),
                btb_counters(&modeled.stats),
                "P{workers}/g{granularity}: threaded vs modeled"
            );
            assert_eq!(threaded.stats.anti_messages, 0);
            rolled_back |= modeled.stats.rollbacks > 0;
        }
    }
    assert!(rolled_back, "the cells must exercise local rollback");
}

/// Run-to-run: threaded breathing time buckets repeats every statistic.
#[test]
fn threaded_btb_statistics_repeat_exactly() {
    let circuit = cmb_subject(DelayModel::Uniform { min: 1, max: 5, seed: 15 });
    let stimulus = Stimulus::random(15, 9).with_clock(5);
    let until = VirtualTime::new(120);
    let weights = GateWeights::uniform(circuit.len());
    let part = FiducciaMattheyses::default().partition(&circuit, 4, &weights);
    let btb = ThreadedBtbSimulator::<Logic4>::new(part).with_granularity(2);
    let first = btb.run(&circuit, &stimulus, until).stats;
    assert!(first.messages_sent > 0, "the cell must release messages");
    for run in 2..=20 {
        assert_eq!(btb.run(&circuit, &stimulus, until).stats, first, "run {run}");
    }
}

/// Captured at commit 9d674b8. `Bit` and `Logic4` agree cell for cell: both
/// start every net at zero and none of these stimuli drives an `X`.
const PINNED: &[(&str, Row)] = &[
    ("c17/sm8/sync", [4778, 2024, 89, 0, 89, 163, 180, 0]),
    ("c17/sm8/cmb-null-g1", [1006, 2024, 89, 10, 0, 163, 97, 0]),
    ("c17/sm8/cmb-null-g4", [977, 2024, 89, 9, 0, 163, 97, 0]),
    ("c17/sm8/cmb-recover-g1", [2153, 2024, 89, 0, 0, 163, 97, 83]),
    ("c17/sm8/cmb-recover-g4", [2153, 2024, 89, 0, 0, 163, 97, 83]),
    ("c17/lan4/sync", [13688, 2024, 55, 0, 89, 163, 180, 0]),
    ("c17/lan4/cmb-null-g1", [2346, 2024, 55, 4, 0, 163, 97, 0]),
    ("c17/lan4/cmb-null-g4", [3734, 2024, 89, 9, 0, 163, 97, 0]),
    ("c17/lan4/cmb-recover-g1", [6742, 2024, 55, 0, 0, 163, 97, 83]),
    ("c17/lan4/cmb-recover-g4", [8002, 2024, 89, 0, 0, 163, 97, 83]),
    ("dag250/sm8/sync", [52064, 127768, 3505, 0, 251, 12808, 6326, 0]),
    ("dag250/sm8/cmb-null-g1", [47046, 127768, 3505, 8264, 0, 12808, 5905, 0]),
    ("dag250/sm8/cmb-null-g4", [122714, 127768, 9754, 66675, 0, 12808, 5905, 0]),
    ("dag250/sm8/cmb-recover-g1", [43345, 127768, 3505, 0, 0, 12808, 5905, 251]),
    ("dag250/sm8/cmb-recover-g4", [59922, 127768, 9754, 0, 0, 12808, 5905, 251]),
    ("dag250/lan4/sync", [108688, 127768, 1825, 0, 251, 12808, 6326, 0]),
    ("dag250/lan4/cmb-null-g1", [86342, 127768, 1825, 1756, 0, 12808, 5905, 0]),
    ("dag250/lan4/cmb-null-g4", [440602, 127768, 8962, 30006, 0, 12808, 5905, 0]),
    ("dag250/lan4/cmb-recover-g1", [82988, 127768, 1825, 0, 0, 12808, 5905, 251]),
    ("dag250/lan4/cmb-recover-g4", [196410, 127768, 8962, 0, 0, 12808, 5905, 251]),
    ("lfsr10/sm8/sync", [7048, 7604, 86, 0, 123, 861, 179, 0]),
    ("lfsr10/sm8/cmb-null-g1", [5184, 7604, 86, 2709, 0, 861, 105, 0]),
    ("lfsr10/sm8/cmb-null-g4", [7453, 7604, 114, 3612, 0, 861, 105, 0]),
    ("lfsr10/sm8/cmb-recover-g1", [4262, 7604, 86, 0, 0, 861, 105, 123]),
    ("lfsr10/sm8/cmb-recover-g4", [4704, 7604, 114, 0, 0, 861, 105, 123]),
    ("lfsr10/lan4/sync", [19230, 7604, 48, 0, 123, 861, 179, 0]),
    ("lfsr10/lan4/cmb-null-g1", [47516, 7604, 48, 1204, 0, 861, 105, 0]),
    ("lfsr10/lan4/cmb-null-g4", [71828, 7604, 114, 3612, 0, 861, 105, 0]),
    ("lfsr10/lan4/cmb-recover-g1", [16170, 7604, 48, 0, 0, 861, 105, 123]),
    ("lfsr10/lan4/cmb-recover-g4", [20342, 7604, 114, 0, 0, 861, 105, 123]),
];
