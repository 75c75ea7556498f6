//! The compiled-execution differential suite. Every fabric kernel —
//! synchronous, conservative, Time Warp and breathing time buckets, on
//! threads and on the virtual machine — evaluates its dirty batches through
//! `parsim-compile` bytecode, and must commit a history **bit-identical** to
//! the sequential reference: across value systems, multi-delay circuits,
//! block counts, and the artifact cache's cold, warm, corrupt and forged
//! paths.
//!
//! The compiler is one subsystem with many backends (event-driven dirty
//! batches under every fabric kernel, packed full sweeps in the oblivious
//! kernel at one lane or 64); this suite is the contract that none of them
//! drifts from the `evaluate_gate` semantics the sequential reference
//! interprets.

use std::collections::BTreeMap;

use parsim::compile::{compile_blocks, serialize_blocks};
use parsim::netlist::Fnv1a;
use parsim::prelude::*;

/// Every fabric kernel over `partition`, on both drivers, tagged with its
/// protocol family.
fn fabric_kernels<V: LogicValue>(
    partition: &Partition,
) -> Vec<(&'static str, Box<dyn Simulator<V>>)> {
    let machine = MachineConfig::shared_memory(partition.blocks());
    let p = || partition.clone();
    vec![
        ("sync", Box::new(ThreadedSyncSimulator::new(p()).with_observe(Observe::AllNets))),
        ("sync", Box::new(SyncSimulator::new(p(), machine).with_observe(Observe::AllNets))),
        ("cmb", Box::new(ThreadedConservativeSimulator::new(p()).with_observe(Observe::AllNets))),
        ("cmb", Box::new(ConservativeSimulator::new(p(), machine).with_observe(Observe::AllNets))),
        ("tw", Box::new(ThreadedTimeWarpSimulator::new(p()).with_observe(Observe::AllNets))),
        ("tw", Box::new(TimeWarpSimulator::new(p(), machine).with_observe(Observe::AllNets))),
        ("btb", Box::new(ThreadedBtbSimulator::new(p()).with_observe(Observe::AllNets))),
        ("btb", Box::new(BtbSimulator::new(p(), machine).with_observe(Observe::AllNets))),
    ]
}

/// Runs every fabric kernel on 1, 2 and 4 blocks and demands the sequential
/// reference's history (waveforms and final values). The synchronous,
/// conservative and breathing protocols evaluate the same batches on either
/// driver, so their threaded and modeled evaluation counts must agree too;
/// Time Warp's two drivers run different schedulers, so only its committed
/// history is compared.
fn cross_check<V: LogicValue>(circuit: &Circuit, stimulus: &Stimulus, until: u64) {
    let until = VirtualTime::new(until);
    let reference = SequentialSimulator::<V>::new()
        .with_observe(Observe::AllNets)
        .run(circuit, stimulus, until);
    assert!(reference.stats.events_processed > 0, "vacuous test on {}", circuit.name());
    for blocks in [1usize, 2, 4] {
        let weights = GateWeights::uniform(circuit.len());
        let partition = FiducciaMattheyses::default().partition(circuit, blocks, &weights);
        let mut evals: BTreeMap<&str, u64> = BTreeMap::new();
        for (family, kernel) in fabric_kernels::<V>(&partition) {
            let out = kernel.run(circuit, stimulus, until);
            if let Some(d) = out.divergence_from(&reference) {
                panic!("{} diverged on {} ({blocks} blocks): {d}", kernel.name(), circuit.name());
            }
            if matches!(family, "sync" | "cmb" | "btb") {
                let first = *evals.entry(family).or_insert(out.stats.gate_evaluations);
                assert_eq!(
                    out.stats.gate_evaluations,
                    first,
                    "{} on {} ({blocks} blocks): threaded and modeled drivers evaluate \
                     different batches",
                    kernel.name(),
                    circuit.name()
                );
            }
        }
    }
}

#[test]
fn every_fabric_kernel_matches_sequential_both_value_systems_multi_delay() {
    for seed in 0..2 {
        let c = generate::random_dag(&generate::RandomDagConfig {
            gates: 260,
            inputs: 20,
            seq_fraction: 0.15,
            delays: DelayModel::Uniform { min: 1, max: 9, seed },
            seed,
            ..Default::default()
        });
        let stim = Stimulus::random(seed + 2, 11).with_clock(6);
        cross_check::<Bit>(&c, &stim, 260);
        cross_check::<Logic4>(&c, &stim, 260);
        cross_check::<Std9>(&c, &stim, 260);
    }
}

/// Random enables make the bus see no driver, one driver and conflicting
/// drivers, so the compiled `Tribuf` and `Bus` arms and both resolution
/// tables are exercised.
#[test]
fn every_fabric_kernel_matches_sequential_on_a_tristate_bus() {
    let c = generate::tristate_bus(6, DelayModel::Unit);
    let stim = Stimulus::random(7, 5);
    cross_check::<Logic4>(&c, &stim, 300);
    cross_check::<Std9>(&c, &stim, 300);
}

#[test]
fn every_fabric_kernel_matches_sequential_on_benchmarks() {
    cross_check::<Logic4>(&bench::c17(), &Stimulus::random(11, 9), 250);
    cross_check::<Logic4>(&bench::s27ish(), &Stimulus::random(5, 14).with_clock(8), 350);
}

#[test]
fn compiled_oblivious_and_bitparallel_agree_with_event_driven() {
    let c = generate::lfsr(8, DelayModel::Unit);
    let stim = Stimulus::quiet(1000).with_clock(4);
    let until = VirtualTime::new(240);
    let reference =
        SequentialSimulator::<Bit>::new().with_observe(Observe::AllNets).run(&c, &stim, until);
    let oblivious =
        ObliviousSimulator::<Bit>::new().with_observe(Observe::AllNets).run(&c, &stim, until);
    assert_eq!(oblivious.divergence_from(&reference), None);
    // The bit-parallel kernel runs the shared schedule; lane 0 must agree
    // with the scalar reference.
    let packed = BitSimulator::<PackedBit>::new().with_observe(Observe::AllNets).run(
        &c,
        &PackedStimulus::new(vec![stim.clone(); 4]),
        until,
    );
    assert_eq!(packed.lane_outcome(0).divergence_from(&reference), None);
}

/// A scratch cache directory, unique per test, cleaned on drop.
struct CacheDir(std::path::PathBuf);

impl CacheDir {
    fn new(tag: &str) -> Self {
        let dir = std::env::temp_dir().join(format!("parsimc-it-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        CacheDir(dir)
    }
}

impl Drop for CacheDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn trace_kinds(probe: &Probe) -> Vec<TraceKind> {
    probe.take_trace().records().iter().map(|r| r.kind).collect()
}

/// Re-stamps an artifact's trailing FNV-1a checksum after an edit, so only
/// the structural and semantic checks can refuse it.
fn restamp(bytes: &mut [u8]) {
    let payload = bytes.len() - 8;
    let mut h = Fnv1a::new();
    h.write(&bytes[..payload]);
    bytes[payload..].copy_from_slice(&h.finish().to_le_bytes());
}

#[test]
fn warm_cache_skips_compilation_and_stays_bit_identical() {
    let cache = CacheDir::new("warm");
    let c = generate::random_dag(&generate::RandomDagConfig {
        gates: 200,
        seq_fraction: 0.2,
        seed: 17,
        ..Default::default()
    });
    let stim = Stimulus::random(3, 9).with_clock(5);
    let until = VirtualTime::new(200);
    let weights = GateWeights::uniform(c.len());
    let partition = FiducciaMattheyses::default().partition(&c, 3, &weights);
    let sim = |probe: &Probe| {
        ThreadedSyncSimulator::<Logic4>::new(partition.clone())
            .with_compiled_cache(&cache.0)
            .with_observe(Observe::AllNets)
            .with_probe(probe.clone())
    };

    // Cold: compiles, populates the store, no cache-hit record.
    let cold_probe = Probe::enabled();
    let cold = sim(&cold_probe).run(&c, &stim, until);
    let kinds = trace_kinds(&cold_probe);
    assert!(kinds.contains(&TraceKind::Compile), "cold run records the compile span");
    assert!(!kinds.contains(&TraceKind::CacheHit), "cold run cannot hit the cache");
    let artifacts: Vec<_> = std::fs::read_dir(&cache.0)
        .expect("store directory created")
        .filter_map(Result::ok)
        .filter(|e| e.path().extension().is_some_and(|x| x == "parsimc"))
        .collect();
    assert_eq!(artifacts.len(), 1, "one artifact per (netlist, partition) key");

    // Warm: loads the artifact — compilation skipped, bit-identical.
    let warm_probe = Probe::enabled();
    let warm = sim(&warm_probe).run(&c, &stim, until);
    let kinds = trace_kinds(&warm_probe);
    assert!(kinds.contains(&TraceKind::CacheHit), "warm run records the cache hit");
    assert_eq!(warm.divergence_from(&cold), None, "warm run is bit-identical to cold");

    // Corrupt the artifact: the run must heal it (recompile) and still
    // produce the identical history.
    let entry = artifacts[0].path();
    std::fs::write(&entry, b"torn artifact").expect("scribble over the artifact");
    let healed_probe = Probe::enabled();
    let healed = sim(&healed_probe).run(&c, &stim, until);
    let kinds = trace_kinds(&healed_probe);
    assert!(!kinds.contains(&TraceKind::CacheHit), "corrupt artifact must not count as a hit");
    assert!(kinds.contains(&TraceKind::Compile), "healing run recompiles");
    assert_eq!(healed.divergence_from(&cold), None, "healed run is bit-identical");

    // And the heal rewrote a valid artifact: the next run hits again.
    let again_probe = Probe::enabled();
    let again = sim(&again_probe).run(&c, &stim, until);
    assert!(trace_kinds(&again_probe).contains(&TraceKind::CacheHit), "store healed in place");
    assert_eq!(again.divergence_from(&cold), None);
}

#[test]
fn artifact_store_outcomes_cover_cold_warm_corrupt() {
    let cache = CacheDir::new("outcomes");
    let store = ArtifactStore::new(&cache.0);
    let c = bench::c17();
    let lp_of = vec![0usize; c.len()];
    let (blocks, outcome, _) = store.load_or_compile(&c, &lp_of, 1);
    assert_eq!(outcome, CacheOutcome::MissCompiled);
    assert_eq!(outcome.label(), "miss");
    let (warm, outcome, _) = store.load_or_compile(&c, &lp_of, 1);
    assert_eq!(outcome, CacheOutcome::Hit);
    assert!(outcome.is_hit());
    assert_eq!(warm, blocks);
    let key = ArtifactStore::cache_key(&c, &lp_of, 1);
    std::fs::write(store.path_of(key), b"garbage").expect("corrupt the entry");
    let (healed, outcome, _) = store.load_or_compile(&c, &lp_of, 1);
    assert_eq!(outcome, CacheOutcome::RecompiledCorrupt);
    assert_eq!(outcome.label(), "recompiled_corrupt");
    assert_eq!(healed, blocks);
}

#[test]
fn forged_artifact_at_the_right_key_is_recompiled_not_trusted() {
    // A checksum-valid artifact whose first op is a NAND with no fanin:
    // every index is in bounds, so only a check against the circuit can
    // tell it from the real thing. Trusted, it turns the gate into a
    // constant and the run diverges.
    let cache = CacheDir::new("forged");
    let c = bench::c17();
    let lp_of = vec![0usize; c.len()];
    let key = ArtifactStore::cache_key(&c, &lp_of, 1);
    let honest = compile_blocks(&c, &lp_of, 1);
    let mut forged = serialize_blocks(key, &honest);
    // File header (magic, version, key, block count: 24 bytes), block
    // header (nets, four counts: 24 bytes), then the first op: gate, kind,
    // delay, seq_slot, fanin_start, fanin_len.
    let fanin_len = 24 + 24 + 4 + 1 + 4 + 4 + 4;
    assert_eq!(c.kind(honest[0].ops()[0].gate), GateKind::Nand);
    forged[fanin_len..fanin_len + 4].copy_from_slice(&0u32.to_le_bytes());
    restamp(&mut forged);
    let store = ArtifactStore::new(&cache.0);
    std::fs::create_dir_all(&cache.0).expect("create the store");
    let plant = || std::fs::write(store.path_of(key), &forged).expect("plant the forgery");

    plant();
    let (blocks, outcome, _) = store.load_or_compile(&c, &lp_of, 1);
    assert_eq!(outcome, CacheOutcome::RecompiledCorrupt, "a forged artifact is corrupt");
    assert_eq!(blocks, honest);

    // Through a kernel: the run recompiles, commits the sequential history
    // and heals the store in place.
    plant();
    let stim = Stimulus::random(11, 9);
    let until = VirtualTime::new(250);
    let reference =
        SequentialSimulator::<Logic4>::new().with_observe(Observe::AllNets).run(&c, &stim, until);
    let probe = Probe::enabled();
    let partition = Partition::new(1, vec![0; c.len()]).expect("one block");
    let out = ThreadedSyncSimulator::<Logic4>::new(partition)
        .with_compiled_cache(&cache.0)
        .with_observe(Observe::AllNets)
        .with_probe(probe.clone())
        .run(&c, &stim, until);
    assert_eq!(out.divergence_from(&reference), None, "the forgery must not reach the kernel");
    assert!(!trace_kinds(&probe).contains(&TraceKind::CacheHit), "a forgery is not a hit");
    let (healed, outcome, _) = store.load_or_compile(&c, &lp_of, 1);
    assert_eq!(outcome, CacheOutcome::Hit, "the store was healed");
    assert_eq!(healed, honest);
}

/// Rewrites an artifact's op order: within each section, ops sorted by
/// `key(kind byte, fanin count, gate)`, the fanin array laid out again in
/// the new op order, sequential state slots renumbered by position, the
/// version stamped [`FORMAT_VERSION`](parsim::compile::FORMAT_VERSION) and
/// the checksum re-stamped. Layout per DESIGN.md §8: a 24-byte file
/// header, then per block a 24-byte header, 21-byte op records, the fanin
/// array and the section bounds.
fn reorder_ops(artifact: &[u8], key: fn(u8, usize, u32) -> (u8, usize, u32)) -> Vec<u8> {
    let word = |at: usize| u32::from_le_bytes(artifact[at..at + 4].try_into().expect("4 bytes"));
    let mut out = artifact[..24].to_vec();
    out[8..12].copy_from_slice(&parsim::compile::FORMAT_VERSION.to_le_bytes());
    let mut pos = 24;
    for _ in 0..word(20) {
        let [seq_ops, n_ops, n_fanins, n_sections] =
            [8, 12, 16, 20].map(|field| word(pos + field) as usize);
        out.extend_from_slice(&artifact[pos..pos + 24]);
        let (ops_at, fanins_at) = (pos + 24, pos + 24 + 21 * n_ops);
        let tail_at = fanins_at + 4 * n_fanins;
        // (kind byte, gate, delay bytes, fanin bytes) per op.
        let mut ops: Vec<(u8, u32, &[u8], &[u8])> = (0..n_ops)
            .map(|i| {
                let at = ops_at + 21 * i;
                let (start, len) = (word(at + 13) as usize, word(at + 17) as usize);
                let fanin = &artifact[fanins_at + 4 * start..fanins_at + 4 * (start + len)];
                (artifact[at + 4], word(at), &artifact[at + 5..at + 9], fanin)
            })
            .collect();
        let order = |op: &(u8, u32, &[u8], &[u8])| key(op.0, op.3.len() / 4, op.1);
        ops[..seq_ops].sort_by_key(order);
        ops[seq_ops..].sort_by_key(order);
        let mut fanins: Vec<u8> = Vec::new();
        for (i, (kind, gate, delay, fanin)) in ops.into_iter().enumerate() {
            let slot = if i < seq_ops { i as u32 } else { u32::MAX };
            out.extend_from_slice(&gate.to_le_bytes());
            out.push(kind);
            out.extend_from_slice(delay);
            out.extend_from_slice(&slot.to_le_bytes());
            out.extend_from_slice(&(fanins.len() as u32 / 4).to_le_bytes());
            out.extend_from_slice(&(fanin.len() as u32 / 4).to_le_bytes());
            fanins.extend_from_slice(fanin);
        }
        out.extend_from_slice(&fanins);
        out.extend_from_slice(&artifact[tail_at..tail_at + 8 * n_sections]);
        pos = tail_at + 8 * n_sections;
    }
    out.extend_from_slice(&[0; 8]);
    restamp(&mut out);
    out
}

#[test]
fn an_artifact_in_kind_then_gate_order_is_refused_at_format_3() {
    // Format 3 orders each section by (kind code, fanin count, gate). The
    // same blocks in format 2's (kind code, gate) order, stamped version 3
    // with a valid checksum and planted at the right key, hold every op
    // with the right kind, delay, owner and fanins; only the order check
    // can refuse them.
    assert_eq!(parsim::compile::FORMAT_VERSION, 3);
    let cache = CacheDir::new("format3");
    let c = generate::random_dag(&generate::RandomDagConfig {
        gates: 400,
        seq_fraction: 0.15,
        seed: 23,
        ..Default::default()
    });
    let lp_of: Vec<usize> = (0..c.len()).map(|i| i % 2).collect();
    let key = ArtifactStore::cache_key(&c, &lp_of, 2);
    let honest = compile_blocks(&c, &lp_of, 2);
    let current = serialize_blocks(key, &honest);
    // The rewriter is faithful: in the format-3 order it rebuilds the
    // compiler's own artifact byte for byte.
    assert_eq!(reorder_ops(&current, |kind, arity, gate| (kind, arity, gate)), current);
    let kind_then_gate = reorder_ops(&current, |kind, _, gate| (kind, 0, gate));
    assert_ne!(kind_then_gate, current, "some run's gate order differs from its fanin order");

    let store = ArtifactStore::new(&cache.0);
    std::fs::create_dir_all(&cache.0).expect("create the store");
    let plant = || std::fs::write(store.path_of(key), &kind_then_gate).expect("plant the artifact");
    plant();
    let (blocks, outcome, _) = store.load_or_compile(&c, &lp_of, 2);
    assert_eq!(outcome, CacheOutcome::RecompiledCorrupt, "the old op order is refused");
    assert_eq!(blocks, honest);

    // Through a kernel: the run recompiles, is bit-identical to a run that
    // compiles fresh, and heals the store in place.
    plant();
    let stim = Stimulus::random(3, 9).with_clock(5);
    let until = VirtualTime::new(200);
    let partition = Partition::new(2, lp_of.clone()).expect("two blocks");
    let sim = |probe: &Probe| {
        ThreadedSyncSimulator::<Logic4>::new(partition.clone())
            .with_observe(Observe::AllNets)
            .with_probe(probe.clone())
    };
    let fresh = sim(&Probe::disabled()).run(&c, &stim, until);
    let probe = Probe::enabled();
    let planted = sim(&probe).with_compiled_cache(&cache.0).run(&c, &stim, until);
    assert_eq!(
        planted.divergence_from(&fresh),
        None,
        "the refused artifact must not reach the kernel"
    );
    assert_eq!(planted.stats, fresh.stats);
    let kinds = trace_kinds(&probe);
    assert!(!kinds.contains(&TraceKind::CacheHit), "the old order is not a hit");
    assert!(kinds.contains(&TraceKind::Compile), "the run recompiles");
    let (healed, outcome, _) = store.load_or_compile(&c, &lp_of, 2);
    assert_eq!(outcome, CacheOutcome::Hit, "the store was healed at the same key");
    assert_eq!(healed, honest);
}
