//! Pins the modeled synchronous and conservative kernels to the numbers
//! they produced when each still carried its own event loop (literals
//! captured at commit 9d674b8). The kernels now run the fabric's protocol
//! objects under the modeled driver; every Figure-1 number is a function of
//! the statistics pinned here, so a port that moves none of them moved no
//! table either. The modeled Time Warp kernel's full statistics and probe
//! records are pinned the same way, over every setting it has. The
//! threaded conservative and breathing-time-buckets kernels are held to
//! the modeled driver's counters, threaded Time Warp's full statistics are
//! pinned as literals, and the threaded kernels repeat their own from run
//! to run.

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

fn check<R: PartialEq + std::fmt::Debug>(
    system: &str,
    actual: &[(String, R)],
    pinned: &[(&str, R)],
) {
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

/// Every `SimStats` counter in declaration order (`events_processed`,
/// `events_scheduled`, `gate_evaluations`, `messages_sent`,
/// `null_messages`, `barriers`, `rollbacks`, `events_rolled_back`,
/// `anti_messages`, `state_saves`, `state_bytes_saved`, `gvt_rounds`,
/// `modeled_makespan`, `modeled_work`), then the probed run's record count
/// and the FNV-1a digest of its records.
type TwRow = [u64; 16];

/// FNV-1a over every record, in the order the trace holds them.
fn digest(records: &[TraceRecord]) -> u64 {
    let mut h = parsim::netlist::Fnv1a::new();
    for r in records {
        for v in [r.t, r.vt, u64::from(r.processor), u64::from(r.lp), r.arg] {
            h.write_u64(v);
        }
        h.write(format!("{:?}", r.kind).as_bytes());
    }
    h.finish()
}

fn tw_row(s: &SimStats, trace: &Trace) -> TwRow {
    assert!(!s.truncated && trace.dropped() == 0);
    [
        s.events_processed,
        s.events_scheduled,
        s.gate_evaluations,
        s.messages_sent,
        s.null_messages,
        s.barriers,
        s.rollbacks,
        s.events_rolled_back,
        s.anti_messages,
        s.state_saves,
        s.state_bytes_saved,
        s.gvt_rounds,
        s.modeled_makespan,
        s.modeled_work,
        trace.records().len() as u64,
        digest(trace.records()),
    ]
}

/// The modeled Time Warp kernel, probed, over every configuration axis it
/// has: processors, state saving, cancellation, LP granularity and the
/// optimism window. Its statistics feed F1 and E1–E5/E7, and its probe
/// records (rollbacks, state saves, sends, GVT advances and the virtual
/// machine's spans) are pinned here too, so a change to how the scheduler
/// is built can move neither.
#[test]
fn time_warp_statistics_and_records_are_pinned() {
    let mut rows = Vec::new();
    for s in subjects() {
        let weights = GateWeights::uniform(s.circuit.len());
        for p in [2, 4] {
            let part = FiducciaMattheyses::default().partition(&s.circuit, p, &weights);
            let machine = MachineConfig::shared_memory(p);
            for saving in [StateSaving::Copy, StateSaving::Incremental] {
                for cancellation in [Cancellation::Aggressive, Cancellation::Lazy] {
                    for (granularity, window) in
                        [(1, None), (1, Some(16)), (2, None), (2, Some(16))]
                    {
                        let mut sim = TimeWarpSimulator::<Logic4>::new(part.clone(), machine)
                            .with_state_saving(saving)
                            .with_cancellation(cancellation)
                            .with_granularity(granularity);
                        if let Some(w) = window {
                            sim = sim.with_window(w);
                        }
                        let probe = Probe::enabled();
                        let out =
                            sim.with_probe(probe.clone()).run(&s.circuit, &s.stimulus, s.until);
                        rows.push((
                            format!(
                                "{}/P{p}/{saving:?}/{cancellation:?}/g{granularity}/{window:?}",
                                s.name
                            ),
                            tw_row(&out.stats, &probe.take_trace()),
                        ));
                    }
                }
            }
        }
    }
    check("Time Warp", &rows, TW_PINNED);
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

/// Every `SimStats` counter in declaration order (`events_processed`
/// through `modeled_work`, as in [`TwRow`]); `truncated` is asserted false.
type StatsRow = [u64; 14];

fn stats_row(s: &SimStats) -> StatsRow {
    assert!(!s.truncated);
    [
        s.events_processed,
        s.events_scheduled,
        s.gate_evaluations,
        s.messages_sent,
        s.null_messages,
        s.barriers,
        s.rollbacks,
        s.events_rolled_back,
        s.anti_messages,
        s.state_saves,
        s.state_bytes_saved,
        s.gvt_rounds,
        s.modeled_makespan,
        s.modeled_work,
    ]
}

/// Threaded Time Warp's whole `SimStats`, pinned over processors, state
/// saving, cancellation and LP granularity. Its rollbacks, anti-messages
/// and state saves depend only on the round structure, so any change to
/// the LP's rollback or cancellation bookkeeping that moves one counter —
/// or the order anti-messages leave in, which decides later rollbacks —
/// shows here. Every lazy cell rolls back; some of them regenerate every
/// rolled-back send and so cancel none, but each circuit's lazy cells
/// together send anti-messages.
#[test]
fn threaded_time_warp_statistics_are_pinned() {
    let mut rows = Vec::new();
    for s in subjects().into_iter().filter(|s| s.name != "c17") {
        let weights = GateWeights::uniform(s.circuit.len());
        let mut lazy_anti_messages = 0;
        for p in [2, 4] {
            let part = FiducciaMattheyses::default().partition(&s.circuit, p, &weights);
            for saving in [StateSaving::Copy, StateSaving::Incremental] {
                for cancellation in [Cancellation::Lazy, Cancellation::Aggressive] {
                    for granularity in [1, 2] {
                        let stats = ThreadedTimeWarpSimulator::<Logic4>::new(part.clone())
                            .with_state_saving(saving)
                            .with_cancellation(cancellation)
                            .with_granularity(granularity)
                            .run(&s.circuit, &s.stimulus, s.until)
                            .stats;
                        let cell =
                            format!("{}/P{p}/{saving:?}/{cancellation:?}/g{granularity}", s.name);
                        if cancellation == Cancellation::Lazy {
                            assert!(stats.rollbacks > 0, "{cell}: the cell must roll back");
                            lazy_anti_messages += stats.anti_messages;
                        }
                        rows.push((cell, stats_row(&stats)));
                    }
                }
            }
        }
        assert!(lazy_anti_messages > 0, "{}: lazy cancellation must cancel", s.name);
    }
    check("threaded Time Warp", &rows, THREADED_TW_PINNED);
}

/// What the breathing protocol counts, driver-independent because each
/// breath is one sealed round: `barriers` (rounds), `messages_sent`,
/// `gate_evaluations`, `rollbacks`, `events_rolled_back`, `state_saves`.
fn btb_counters(s: &SimStats) -> [u64; 6] {
    [
        s.barriers,
        s.messages_sent,
        s.gate_evaluations,
        s.rollbacks,
        s.events_rolled_back,
        s.state_saves,
    ]
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

/// Every optimistic kernel, on either driver, counts one state save per
/// processed batch and the value slots those saves captured.
#[test]
fn every_optimistic_kernel_counts_its_state_saves() {
    let circuit = cmb_subject(DelayModel::Uniform { min: 1, max: 5, seed: 15 });
    let stimulus = Stimulus::random(15, 9).with_clock(5);
    let until = VirtualTime::new(120);
    let weights = GateWeights::uniform(circuit.len());
    let part = FiducciaMattheyses::default().partition(&circuit, 2, &weights);
    let machine = MachineConfig::shared_memory(2);
    let kernels: [Box<dyn Simulator<Logic4>>; 4] = [
        Box::new(TimeWarpSimulator::<Logic4>::new(part.clone(), machine)),
        Box::new(ThreadedTimeWarpSimulator::<Logic4>::new(part.clone())),
        Box::new(BtbSimulator::<Logic4>::new(part.clone(), machine)),
        Box::new(ThreadedBtbSimulator::<Logic4>::new(part)),
    ];
    for kernel in kernels {
        let stats = kernel.run(&circuit, &stimulus, until).stats;
        assert!(stats.state_saves > 0, "{}: no state saves counted", kernel.name());
        assert!(stats.state_bytes_saved > 0, "{}: no state slots counted", kernel.name());
    }
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

/// Captured at commit e8ffef8, while the modeled Time Warp kernel still
/// built its own LPs, messages, probe records and prices.
#[rustfmt::skip]
const TW_PINNED: &[(&str, TwRow)] = &[
    ("c17/P2/Copy/Aggressive/g1/None", [204, 97, 163, 24, 0, 0, 0, 0, 0, 129, 3078, 11, 3654, 2120, 450, 2435836417569175211]),
    ("c17/P2/Copy/Aggressive/g1/Some(16)", [204, 97, 163, 24, 0, 0, 0, 0, 0, 129, 3078, 11, 3654, 2120, 450, 2435836417569175211]),
    ("c17/P2/Copy/Aggressive/g2/None", [267, 97, 163, 55, 0, 0, 0, 0, 0, 202, 2615, 11, 3469, 2372, 747, 17640282539867762440]),
    ("c17/P2/Copy/Aggressive/g2/Some(16)", [267, 97, 163, 55, 0, 0, 0, 0, 0, 202, 2615, 11, 3469, 2372, 747, 17640282539867762440]),
    ("c17/P2/Copy/Lazy/g1/None", [204, 97, 163, 24, 0, 0, 0, 0, 0, 129, 3078, 11, 3654, 2120, 450, 2435836417569175211]),
    ("c17/P2/Copy/Lazy/g1/Some(16)", [204, 97, 163, 24, 0, 0, 0, 0, 0, 129, 3078, 11, 3654, 2120, 450, 2435836417569175211]),
    ("c17/P2/Copy/Lazy/g2/None", [267, 97, 163, 55, 0, 0, 0, 0, 0, 202, 2615, 11, 3469, 2372, 747, 17640282539867762440]),
    ("c17/P2/Copy/Lazy/g2/Some(16)", [267, 97, 163, 55, 0, 0, 0, 0, 0, 202, 2615, 11, 3469, 2372, 747, 17640282539867762440]),
    ("c17/P2/Incremental/Aggressive/g1/None", [204, 97, 163, 24, 0, 0, 0, 0, 0, 129, 691, 11, 1956, 2120, 450, 10777048837809372990]),
    ("c17/P2/Incremental/Aggressive/g1/Some(16)", [204, 97, 163, 24, 0, 0, 0, 0, 0, 129, 691, 11, 1956, 2120, 450, 10777048837809372990]),
    ("c17/P2/Incremental/Aggressive/g2/None", [267, 97, 163, 55, 0, 0, 0, 0, 0, 202, 754, 11, 2210, 2372, 747, 10365287825468957886]),
    ("c17/P2/Incremental/Aggressive/g2/Some(16)", [267, 97, 163, 55, 0, 0, 0, 0, 0, 202, 754, 11, 2210, 2372, 747, 10365287825468957886]),
    ("c17/P2/Incremental/Lazy/g1/None", [204, 97, 163, 24, 0, 0, 0, 0, 0, 129, 691, 11, 1956, 2120, 450, 10777048837809372990]),
    ("c17/P2/Incremental/Lazy/g1/Some(16)", [204, 97, 163, 24, 0, 0, 0, 0, 0, 129, 691, 11, 1956, 2120, 450, 10777048837809372990]),
    ("c17/P2/Incremental/Lazy/g2/None", [267, 97, 163, 55, 0, 0, 0, 0, 0, 202, 754, 11, 2210, 2372, 747, 10365287825468957886]),
    ("c17/P2/Incremental/Lazy/g2/Some(16)", [267, 97, 163, 55, 0, 0, 0, 0, 0, 202, 754, 11, 2210, 2372, 747, 10365287825468957886]),
    ("c17/P4/Copy/Aggressive/g1/None", [300, 97, 163, 55, 0, 0, 3, 3, 0, 200, 2701, 13, 2429, 2504, 750, 10634474257539871815]),
    ("c17/P4/Copy/Aggressive/g1/Some(16)", [300, 97, 163, 55, 0, 0, 3, 3, 0, 200, 2701, 13, 2429, 2504, 750, 10634474257539871815]),
    ("c17/P4/Copy/Aggressive/g2/None", [336, 100, 166, 78, 0, 0, 3, 7, 6, 287, 2169, 13, 2305, 2648, 1060, 6228327797218080377]),
    ("c17/P4/Copy/Aggressive/g2/Some(16)", [336, 100, 166, 78, 0, 0, 3, 7, 6, 287, 2169, 13, 2305, 2648, 1060, 6228327797218080377]),
    ("c17/P4/Copy/Lazy/g1/None", [300, 97, 163, 55, 0, 0, 3, 3, 0, 200, 2701, 13, 2429, 2504, 750, 10634474257539871815]),
    ("c17/P4/Copy/Lazy/g1/Some(16)", [300, 97, 163, 55, 0, 0, 3, 3, 0, 200, 2701, 13, 2429, 2504, 750, 10634474257539871815]),
    ("c17/P4/Copy/Lazy/g2/None", [336, 100, 167, 76, 0, 0, 5, 9, 4, 289, 2186, 13, 2370, 2648, 1057, 16948449183058014842]),
    ("c17/P4/Copy/Lazy/g2/Some(16)", [336, 100, 167, 76, 0, 0, 5, 9, 4, 289, 2186, 13, 2370, 2648, 1057, 16948449183058014842]),
    ("c17/P4/Incremental/Aggressive/g1/None", [300, 101, 175, 57, 0, 0, 7, 19, 2, 214, 841, 14, 1764, 2536, 815, 7474878670196005173]),
    ("c17/P4/Incremental/Aggressive/g1/Some(16)", [300, 101, 175, 57, 0, 0, 7, 19, 2, 214, 841, 14, 1764, 2536, 815, 7474878670196005173]),
    ("c17/P4/Incremental/Aggressive/g2/None", [336, 106, 180, 78, 0, 0, 8, 23, 6, 304, 896, 14, 1999, 2680, 1120, 13399236154904251298]),
    ("c17/P4/Incremental/Aggressive/g2/Some(16)", [336, 106, 180, 78, 0, 0, 8, 23, 6, 304, 896, 14, 1999, 2680, 1120, 13399236154904251298]),
    ("c17/P4/Incremental/Lazy/g1/None", [300, 101, 175, 57, 0, 0, 7, 19, 2, 214, 841, 14, 1764, 2536, 815, 16571704307586494876]),
    ("c17/P4/Incremental/Lazy/g1/Some(16)", [300, 101, 175, 57, 0, 0, 7, 19, 2, 214, 841, 14, 1764, 2536, 815, 16571704307586494876]),
    ("c17/P4/Incremental/Lazy/g2/None", [336, 105, 182, 76, 0, 0, 10, 30, 4, 309, 909, 15, 2088, 2680, 1131, 12928145382574826331]),
    ("c17/P4/Incremental/Lazy/g2/Some(16)", [336, 105, 182, 76, 0, 0, 10, 30, 4, 309, 909, 15, 2088, 2680, 1131, 12928145382574826331]),
    ("dag250/P2/Copy/Aggressive/g1/None", [7242, 5905, 12808, 831, 0, 0, 0, 0, 0, 502, 300698, 10, 260337, 131432, 4029, 14983664028382732031]),
    ("dag250/P2/Copy/Aggressive/g1/Some(16)", [7242, 5905, 12808, 831, 0, 0, 0, 0, 0, 502, 300698, 15, 260397, 131432, 4044, 201540412220851769]),
    ("dag250/P2/Copy/Aggressive/g2/None", [11374, 5964, 12920, 4729, 0, 0, 17, 117, 63, 1021, 354519, 17, 314408, 147960, 17520, 5001237672049179198]),
    ("dag250/P2/Copy/Aggressive/g2/Some(16)", [11374, 5954, 12906, 4716, 0, 0, 14, 104, 50, 1018, 353601, 17, 314360, 147960, 17427, 10715807950994633397]),
    ("dag250/P2/Copy/Lazy/g1/None", [7242, 5905, 12808, 831, 0, 0, 0, 0, 0, 502, 300698, 10, 260337, 131432, 4029, 14983664028382732031]),
    ("dag250/P2/Copy/Lazy/g1/Some(16)", [7242, 5905, 12808, 831, 0, 0, 0, 0, 0, 502, 300698, 15, 260397, 131432, 4044, 201540412220851769]),
    ("dag250/P2/Copy/Lazy/g2/None", [11374, 5972, 12944, 4670, 0, 0, 19, 139, 4, 1023, 355219, 17, 314692, 147960, 17176, 17896923988183725886]),
    ("dag250/P2/Copy/Lazy/g2/Some(16)", [11374, 5954, 12906, 4670, 0, 0, 14, 104, 4, 1018, 353601, 17, 314092, 147960, 17151, 825997349635639057]),
    ("dag250/P2/Incremental/Aggressive/g1/None", [7242, 5905, 12808, 831, 0, 0, 0, 0, 0, 502, 45644, 10, 123971, 131432, 4029, 12145529482294252557]),
    ("dag250/P2/Incremental/Aggressive/g1/Some(16)", [7242, 5905, 12808, 831, 0, 0, 0, 0, 0, 502, 45644, 15, 124031, 131432, 4044, 1027458190098502673]),
    ("dag250/P2/Incremental/Aggressive/g2/None", [11374, 5971, 12939, 4733, 0, 0, 18, 133, 67, 1022, 50291, 17, 153158, 147960, 17549, 14984214166121207972]),
    ("dag250/P2/Incremental/Aggressive/g2/Some(16)", [11374, 5954, 12906, 4716, 0, 0, 14, 104, 50, 1018, 50163, 17, 152702, 147960, 17427, 15525576645199406149]),
    ("dag250/P2/Incremental/Lazy/g1/None", [7242, 5905, 12808, 831, 0, 0, 0, 0, 0, 502, 45644, 10, 123971, 131432, 4029, 12145529482294252557]),
    ("dag250/P2/Incremental/Lazy/g1/Some(16)", [7242, 5905, 12808, 831, 0, 0, 0, 0, 0, 502, 45644, 15, 124031, 131432, 4044, 1027458190098502673]),
    ("dag250/P2/Incremental/Lazy/g2/None", [11374, 5971, 12939, 4670, 0, 0, 18, 133, 4, 1022, 50291, 17, 152728, 147960, 17171, 8764375743099788938]),
    ("dag250/P2/Incremental/Lazy/g2/Some(16)", [11374, 5954, 12906, 4670, 0, 0, 14, 104, 4, 1018, 50163, 17, 152434, 147960, 17151, 10767768607530452147]),
    ("dag250/P4/Copy/Aggressive/g1/None", [8430, 5916, 12833, 1835, 0, 0, 4, 17, 10, 993, 316155, 18, 159446, 136184, 8599, 4573364090932314769]),
    ("dag250/P4/Copy/Aggressive/g1/Some(16)", [8430, 5951, 12894, 1850, 0, 0, 8, 60, 25, 1003, 318894, 17, 160167, 136184, 8722, 2374964314874326670]),
    ("dag250/P4/Copy/Aggressive/g2/None", [12501, 6007, 13046, 5680, 0, 0, 46, 260, 87, 1993, 364244, 32, 194211, 152468, 23461, 2599633425832080194]),
    ("dag250/P4/Copy/Aggressive/g2/Some(16)", [12501, 6040, 13116, 5712, 0, 0, 50, 324, 119, 2010, 366873, 34, 195543, 152468, 23714, 9995004292525727783]),
    ("dag250/P4/Copy/Lazy/g1/None", [8430, 5916, 12833, 1826, 0, 0, 4, 17, 1, 993, 316155, 18, 159428, 136184, 8545, 4030733456823827984]),
    ("dag250/P4/Copy/Lazy/g1/Some(16)", [8430, 5941, 12879, 1826, 0, 0, 7, 49, 1, 1001, 318258, 16, 160107, 136184, 8565, 10489377662417755745]),
    ("dag250/P4/Copy/Lazy/g2/None", [12501, 6554, 14262, 5628, 0, 0, 54, 1464, 35, 2132, 390450, 35, 221431, 152468, 23583, 13166905157562076283]),
    ("dag250/P4/Copy/Lazy/g2/Some(16)", [12501, 6014, 13069, 5598, 0, 0, 46, 278, 5, 2005, 365880, 33, 193949, 152468, 23002, 10108311393960542448]),
    ("dag250/P4/Incremental/Aggressive/g1/None", [8430, 5960, 12930, 1878, 0, 0, 6, 91, 53, 1014, 47282, 18, 80767, 136184, 8923, 17100770501342409253]),
    ("dag250/P4/Incremental/Aggressive/g1/Some(16)", [8430, 6309, 13676, 1980, 0, 0, 9, 542, 155, 1063, 49971, 17, 86240, 136512, 9683, 18254035670479095704]),
    ("dag250/P4/Incremental/Aggressive/g2/None", [12501, 7124, 15583, 6731, 0, 0, 81, 2614, 1138, 2343, 61829, 38, 124154, 153700, 30901, 13728843528835450807]),
    ("dag250/P4/Incremental/Aggressive/g2/Some(16)", [12501, 6221, 13571, 5933, 0, 0, 67, 707, 340, 2092, 53886, 34, 103408, 152948, 25318, 17144149226483129939]),
    ("dag250/P4/Incremental/Lazy/g1/None", [8430, 5969, 12943, 1831, 0, 0, 6, 94, 6, 1015, 47324, 18, 80725, 136184, 8645, 10355844091041138630]),
    ("dag250/P4/Incremental/Lazy/g1/Some(16)", [8430, 6117, 13321, 1830, 0, 0, 8, 312, 5, 1040, 48676, 17, 84452, 136512, 8712, 8697200669469347343]),
    ("dag250/P4/Incremental/Lazy/g2/None", [12501, 6737, 14778, 5633, 0, 0, 60, 1901, 40, 2195, 58701, 36, 120210, 153116, 23817, 14764069899153255238]),
    ("dag250/P4/Incremental/Lazy/g2/Some(16)", [12501, 6355, 13929, 5611, 0, 0, 62, 1032, 18, 2103, 55285, 36, 109763, 153116, 23420, 2775409627949623460]),
    ("lfsr10/P2/Copy/Aggressive/g1/None", [273, 109, 953, 21, 0, 0, 11, 20, 1, 256, 6525, 18, 8115, 7980, 900, 10232452216690229234]),
    ("lfsr10/P2/Copy/Aggressive/g1/Some(16)", [273, 109, 953, 21, 0, 0, 11, 20, 1, 256, 6525, 18, 8115, 7980, 900, 10232452216690229234]),
    ("lfsr10/P2/Copy/Aggressive/g2/None", [506, 105, 905, 105, 0, 0, 14, 20, 0, 463, 7196, 19, 9122, 8912, 1722, 6857807829321259854]),
    ("lfsr10/P2/Copy/Aggressive/g2/Some(16)", [506, 105, 905, 105, 0, 0, 14, 20, 0, 463, 7196, 19, 9122, 8912, 1722, 6857807829321259854]),
    ("lfsr10/P2/Copy/Lazy/g1/None", [273, 109, 955, 20, 0, 0, 12, 22, 0, 257, 6551, 18, 8107, 7980, 899, 11591580183271301540]),
    ("lfsr10/P2/Copy/Lazy/g1/Some(16)", [273, 109, 955, 20, 0, 0, 12, 22, 0, 257, 6551, 18, 8107, 7980, 899, 11591580183271301540]),
    ("lfsr10/P2/Copy/Lazy/g2/None", [506, 105, 905, 105, 0, 0, 14, 20, 0, 463, 7196, 19, 9122, 8912, 1722, 6857807829321259854]),
    ("lfsr10/P2/Copy/Lazy/g2/Some(16)", [506, 105, 905, 105, 0, 0, 14, 20, 0, 463, 7196, 19, 9122, 8912, 1722, 6857807829321259854]),
    ("lfsr10/P2/Incremental/Aggressive/g1/None", [273, 109, 980, 21, 0, 0, 11, 23, 1, 261, 3236, 18, 6636, 8108, 916, 6991955563972213538]),
    ("lfsr10/P2/Incremental/Aggressive/g1/Some(16)", [273, 109, 980, 21, 0, 0, 11, 23, 1, 261, 3236, 18, 6636, 8108, 916, 6991955563972213538]),
    ("lfsr10/P2/Incremental/Aggressive/g2/None", [506, 105, 915, 105, 0, 0, 15, 19, 0, 466, 3270, 19, 7106, 8984, 1734, 6889903885016018189]),
    ("lfsr10/P2/Incremental/Aggressive/g2/Some(16)", [506, 105, 915, 105, 0, 0, 15, 19, 0, 466, 3270, 19, 7106, 8984, 1734, 6889903885016018189]),
    ("lfsr10/P2/Incremental/Lazy/g1/None", [273, 109, 975, 20, 0, 0, 10, 22, 0, 260, 3220, 18, 6546, 8108, 904, 13180101866009321229]),
    ("lfsr10/P2/Incremental/Lazy/g1/Some(16)", [273, 109, 975, 20, 0, 0, 10, 22, 0, 260, 3220, 18, 6546, 8108, 904, 13180101866009321229]),
    ("lfsr10/P2/Incremental/Lazy/g2/None", [506, 105, 915, 105, 0, 0, 15, 19, 0, 466, 3270, 19, 7106, 8984, 1734, 6889903885016018189]),
    ("lfsr10/P2/Incremental/Lazy/g2/Some(16)", [506, 105, 915, 105, 0, 0, 15, 19, 0, 466, 3270, 19, 7106, 8984, 1734, 6889903885016018189]),
    ("lfsr10/P4/Copy/Aggressive/g1/None", [449, 114, 1011, 55, 0, 0, 36, 79, 7, 501, 7001, 26, 5156, 8684, 1878, 8037228031705416049]),
    ("lfsr10/P4/Copy/Aggressive/g1/Some(16)", [449, 114, 1011, 55, 0, 0, 36, 79, 7, 501, 7001, 26, 5156, 8684, 1878, 8037228031705416049]),
    ("lfsr10/P4/Copy/Aggressive/g2/None", [811, 113, 959, 122, 0, 0, 43, 89, 8, 877, 7519, 28, 5795, 10132, 3168, 6261383418491744188]),
    ("lfsr10/P4/Copy/Aggressive/g2/Some(16)", [811, 113, 959, 122, 0, 0, 43, 89, 8, 877, 7519, 28, 5795, 10132, 3168, 6261383418491744188]),
    ("lfsr10/P4/Copy/Lazy/g1/None", [449, 118, 1008, 51, 0, 0, 29, 74, 3, 495, 6920, 26, 5084, 8684, 1825, 1456378169577646296]),
    ("lfsr10/P4/Copy/Lazy/g1/Some(16)", [449, 118, 1008, 51, 0, 0, 29, 74, 3, 495, 6920, 26, 5084, 8684, 1825, 1456378169577646296]),
    ("lfsr10/P4/Copy/Lazy/g2/None", [811, 114, 948, 122, 0, 0, 45, 87, 8, 875, 7468, 21, 5461, 10132, 3126, 15710665406675857071]),
    ("lfsr10/P4/Copy/Lazy/g2/Some(16)", [811, 114, 948, 122, 0, 0, 45, 87, 8, 875, 7468, 21, 5461, 10132, 3126, 15710665406675857071]),
    ("lfsr10/P4/Incremental/Aggressive/g1/None", [449, 118, 1066, 59, 0, 0, 34, 81, 11, 523, 3728, 28, 4671, 9156, 1976, 15421993919957148911]),
    ("lfsr10/P4/Incremental/Aggressive/g1/Some(16)", [449, 118, 1066, 59, 0, 0, 34, 81, 11, 523, 3728, 28, 4671, 9156, 1976, 15421993919957148911]),
    ("lfsr10/P4/Incremental/Aggressive/g2/None", [811, 115, 1058, 124, 0, 0, 63, 128, 10, 948, 4113, 29, 5078, 10548, 3429, 8524181596587448335]),
    ("lfsr10/P4/Incremental/Aggressive/g2/Some(16)", [811, 115, 1058, 124, 0, 0, 63, 128, 10, 948, 4113, 29, 5078, 10548, 3429, 8524181596587448335]),
    ("lfsr10/P4/Incremental/Lazy/g1/None", [449, 119, 1068, 53, 0, 0, 27, 79, 5, 523, 3732, 29, 4637, 9188, 1929, 9176359144217460183]),
    ("lfsr10/P4/Incremental/Lazy/g1/Some(16)", [449, 119, 1068, 53, 0, 0, 27, 79, 5, 523, 3732, 29, 4637, 9188, 1929, 9176359144217460183]),
    ("lfsr10/P4/Incremental/Lazy/g2/None", [811, 119, 1069, 124, 0, 0, 65, 151, 10, 968, 4169, 32, 5251, 10508, 3506, 14282455325656902652]),
    ("lfsr10/P4/Incremental/Lazy/g2/Some(16)", [811, 119, 1069, 124, 0, 0, 65, 151, 10, 968, 4169, 32, 5251, 10508, 3506, 14282455325656902652]),
];

/// Captured at commit bee1d26, before the LP's rollback withdrew self-sends
/// in one pass and its lazy-cancellation set was keyed.
#[rustfmt::skip]
const THREADED_TW_PINNED: &[(&str, StatsRow)] = &[
    ("dag250/P2/Copy/Lazy/g1", [7242, 5938, 12869, 831, 0, 64, 2, 38, 0, 505, 302708, 64, 0, 0]),
    ("dag250/P2/Copy/Lazy/g2", [11374, 8469, 18423, 4746, 0, 95, 200, 5052, 80, 1476, 514027, 95, 0, 0]),
    ("dag250/P2/Copy/Aggressive/g1", [7242, 5938, 12869, 831, 0, 64, 2, 38, 0, 505, 302708, 64, 0, 0]),
    ("dag250/P2/Copy/Aggressive/g2", [11374, 12115, 26242, 9325, 0, 139, 362, 12080, 4659, 1990, 700719, 139, 0, 0]),
    ("dag250/P2/Incremental/Lazy/g1", [7242, 5921, 12976, 831, 0, 64, 1, 17, 0, 505, 46165, 64, 0, 0]),
    ("dag250/P2/Incremental/Lazy/g2", [11374, 8553, 24457, 4755, 0, 106, 175, 5235, 89, 1569, 89944, 106, 0, 0]),
    ("dag250/P2/Incremental/Aggressive/g1", [7242, 5921, 12976, 831, 0, 64, 1, 17, 0, 505, 46165, 64, 0, 0]),
    ("dag250/P2/Incremental/Aggressive/g2", [11374, 11388, 36231, 8865, 0, 147, 348, 10648, 4199, 2068, 130682, 147, 0, 0]),
    ("dag250/P4/Copy/Lazy/g1", [8430, 6008, 13015, 1826, 0, 66, 12, 147, 1, 1010, 322078, 66, 0, 0]),
    ("dag250/P4/Copy/Lazy/g2", [12501, 8083, 17484, 5702, 0, 91, 299, 4646, 109, 2666, 491468, 91, 0, 0]),
    ("dag250/P4/Copy/Aggressive/g1", [8430, 5987, 12976, 1848, 0, 66, 11, 114, 23, 1010, 322078, 66, 0, 0]),
    ("dag250/P4/Copy/Aggressive/g2", [12501, 9929, 21430, 9106, 0, 118, 434, 8455, 3513, 3122, 581288, 118, 0, 0]),
    ("dag250/P4/Incremental/Lazy/g1", [8430, 6021, 13328, 1825, 0, 66, 9, 178, 0, 1017, 48563, 66, 0, 0]),
    ("dag250/P4/Incremental/Lazy/g2", [12501, 8060, 19865, 5698, 0, 99, 266, 4599, 105, 2723, 76658, 99, 0, 0]),
    ("dag250/P4/Incremental/Aggressive/g1", [8430, 5992, 13409, 1852, 0, 66, 10, 133, 27, 1017, 48761, 66, 0, 0]),
    ("dag250/P4/Incremental/Aggressive/g2", [12501, 9761, 25999, 9040, 0, 126, 417, 8145, 3447, 3234, 98608, 126, 0, 0]),
    ("lfsr10/P2/Copy/Lazy/g1", [273, 107, 1058, 20, 0, 36, 17, 46, 0, 280, 7139, 36, 0, 0]),
    ("lfsr10/P2/Copy/Lazy/g2", [506, 128, 1399, 114, 0, 44, 79, 243, 9, 680, 10540, 44, 0, 0]),
    ("lfsr10/P2/Copy/Aggressive/g1", [273, 111, 1092, 23, 0, 37, 17, 55, 3, 288, 7343, 37, 0, 0]),
    ("lfsr10/P2/Copy/Aggressive/g2", [506, 139, 1442, 139, 0, 46, 84, 279, 34, 703, 10904, 46, 0, 0]),
    ("lfsr10/P2/Incremental/Lazy/g1", [273, 126, 1241, 23, 0, 42, 15, 87, 3, 327, 4083, 42, 0, 0]),
    ("lfsr10/P2/Incremental/Lazy/g2", [506, 124, 1632, 106, 0, 50, 80, 265, 1, 770, 5667, 50, 0, 0]),
    ("lfsr10/P2/Incremental/Aggressive/g1", [273, 120, 1291, 24, 0, 43, 16, 89, 4, 331, 4235, 43, 0, 0]),
    ("lfsr10/P2/Incremental/Aggressive/g2", [506, 135, 1640, 135, 0, 51, 91, 272, 30, 782, 5698, 51, 0, 0]),
    ("lfsr10/P4/Copy/Lazy/g1", [449, 123, 1405, 53, 0, 43, 41, 241, 5, 662, 9267, 43, 0, 0]),
    ("lfsr10/P4/Copy/Lazy/g2", [811, 126, 1551, 129, 0, 45, 116, 587, 15, 1370, 11497, 45, 0, 0]),
    ("lfsr10/P4/Copy/Aggressive/g1", [449, 120, 1400, 58, 0, 44, 46, 244, 10, 661, 9250, 44, 0, 0]),
    ("lfsr10/P4/Copy/Aggressive/g2", [811, 122, 1542, 134, 0, 45, 117, 579, 20, 1361, 11429, 45, 0, 0]),
    ("lfsr10/P4/Incremental/Lazy/g1", [449, 124, 1424, 53, 0, 43, 40, 220, 5, 668, 4941, 43, 0, 0]),
    ("lfsr10/P4/Incremental/Lazy/g2", [811, 125, 1577, 129, 0, 45, 116, 525, 15, 1379, 6067, 45, 0, 0]),
    ("lfsr10/P4/Incremental/Aggressive/g1", [449, 119, 1424, 57, 0, 44, 42, 215, 9, 664, 4936, 44, 0, 0]),
    ("lfsr10/P4/Incremental/Aggressive/g2", [811, 147, 1640, 161, 0, 48, 131, 599, 47, 1448, 6330, 48, 0, 0]),
];
