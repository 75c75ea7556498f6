//! The `.parsimc` loader under mutation. Serialized block sets are
//! byte-flipped, spliced, truncated and have their u32 fields overwritten,
//! then re-stamped with a valid checksum, so the structural and semantic
//! checks — not the checksum — are what refuses them. Deserializing never
//! panics, and whatever the loader accepts, directly or through the store's
//! cache-or-compile path, is exactly a fresh compilation.

use parsim_compile::{
    compile_blocks, deserialize_blocks, serialize_blocks, ArtifactStore, CacheOutcome,
    CompiledBlock,
};
use parsim_logic::GateKind;
use parsim_netlist::{bench, generate, Circuit, CircuitBuilder, Delay, DelayModel, Fnv1a};
use proptest::prelude::*;

#[derive(Debug, Clone)]
enum Mutation {
    /// XOR one payload byte with a nonzero mask.
    Flip(prop::sample::Index, u8),
    /// Insert bytes before a position.
    Splice(prop::sample::Index, Vec<u8>),
    /// Cut the payload at a position.
    Truncate(prop::sample::Index),
    /// Overwrite one of the format's 32-bit words.
    Word(prop::sample::Index, u32),
}

fn any_mutation() -> impl Strategy<Value = Mutation> {
    let word = prop_oneof![Just(0u32), Just(1u32), Just(u32::MAX), 0u32..300, any::<u32>()];
    prop_oneof![
        3 => (any::<prop::sample::Index>(), 1u8..=255).prop_map(|(at, m)| Mutation::Flip(at, m)),
        1 => (any::<prop::sample::Index>(), prop::collection::vec(0u8..=255, 1..9))
            .prop_map(|(at, bytes)| Mutation::Splice(at, bytes)),
        1 => any::<prop::sample::Index>().prop_map(Mutation::Truncate),
        3 => (any::<prop::sample::Index>(), word).prop_map(|(at, v)| Mutation::Word(at, v)),
    ]
}

/// `(circuit, per-gate LP assignment, LP count)`: c17 on one LP, and a
/// multi-delay sequential DAG on three.
fn subjects() -> Vec<(Circuit, Vec<usize>, usize)> {
    let dag = generate::random_dag(&generate::RandomDagConfig {
        gates: 90,
        seq_fraction: 0.2,
        delays: DelayModel::Uniform { min: 1, max: 7, seed: 4 },
        seed: 4,
        ..Default::default()
    });
    let dag_lps = (0..dag.len()).map(|i| i % 3).collect();
    let c17 = bench::c17();
    let c17_lps = vec![0; c17.len()];
    vec![(c17, c17_lps, 1), (dag, dag_lps, 3)]
}

/// Byte offsets of the artifact's 32-bit words: the version, the block
/// count, both halves of each block's circuit size and its four counts,
/// each op's gate, delay, state slot, fanin start and fanin length, and
/// every fanin and section bound.
fn words(blocks: &[CompiledBlock]) -> Vec<usize> {
    let mut at = vec![8, 20];
    let mut pos = 24;
    for b in blocks {
        at.extend((0..6).map(|i| pos + 4 * i));
        pos += 24;
        for _ in b.ops() {
            at.extend([pos, pos + 5, pos + 9, pos + 13, pos + 17]);
            pos += 21;
        }
        let fanins: usize = b.ops().iter().map(|op| b.fanin(op).len()).sum();
        let tail = fanins + 2 * b.sections().len();
        at.extend((0..tail).map(|i| pos + 4 * i));
        pos += 4 * tail;
    }
    at
}

/// Applies `mutations` to the artifact's payload and re-stamps its
/// checksum.
fn mutate(artifact: &[u8], words: &[usize], mutations: &[Mutation]) -> Vec<u8> {
    let mut payload = artifact[..artifact.len() - 8].to_vec();
    for m in mutations {
        match m {
            Mutation::Flip(at, mask) if !payload.is_empty() => {
                let i = at.index(payload.len());
                payload[i] ^= mask;
            }
            Mutation::Flip(..) => {}
            Mutation::Splice(at, bytes) => {
                let i = at.index(payload.len() + 1);
                payload.splice(i..i, bytes.iter().copied());
            }
            Mutation::Truncate(at) => payload.truncate(at.index(payload.len() + 1)),
            Mutation::Word(at, v) => {
                let i = words[at.index(words.len())];
                if let Some(word) = payload.get_mut(i..i + 4) {
                    word.copy_from_slice(&v.to_le_bytes());
                }
            }
        }
    }
    stamp(&mut payload);
    payload
}

/// Appends the FNV-1a checksum trailer to an artifact payload.
fn stamp(payload: &mut Vec<u8>) {
    let mut h = Fnv1a::new();
    h.write(payload);
    payload.extend_from_slice(&h.finish().to_le_bytes());
}

/// A store directory unique to this process, removed on drop.
struct StoreDir(std::path::PathBuf);

impl Drop for StoreDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn mutated_artifacts_never_panic_and_never_load_other_blocks(
        subject in 0usize..2,
        mutations in prop::collection::vec(any_mutation(), 1..5),
    ) {
        let (circuit, lp_of, n_lps) = &subjects()[subject];
        let fresh = compile_blocks(circuit, lp_of, *n_lps);
        let key = ArtifactStore::cache_key(circuit, lp_of, *n_lps);
        let bytes = mutate(&serialize_blocks(key, &fresh), &words(&fresh), &mutations);

        let accepted = deserialize_blocks(&bytes, circuit, lp_of, *n_lps);
        if let Some((_, blocks)) = &accepted {
            prop_assert_eq!(blocks, &fresh, "accepted blocks that are not the compilation");
        }

        let dir = StoreDir(std::env::temp_dir().join(format!(
            "parsimc-mutation-{}-{subject}",
            std::process::id()
        )));
        let store = ArtifactStore::new(&dir.0);
        std::fs::create_dir_all(&dir.0).expect("create the store");
        std::fs::write(store.path_of(key), &bytes).expect("plant the mutant");
        let (blocks, outcome, _) = store.load_or_compile(circuit, lp_of, *n_lps);
        prop_assert_eq!(&blocks, &fresh, "the store returned blocks that are not the compilation");
        let hit = accepted.is_some_and(|(stored, _)| stored == key);
        let expected = if hit { CacheOutcome::Hit } else { CacheOutcome::RecompiledCorrupt };
        prop_assert_eq!(outcome, expected);
    }
}

#[test]
fn a_huge_declared_circuit_is_refused_before_anything_is_sized_from_it() {
    // One block claiming 2^40 nets and owning nothing: structurally
    // consistent, ~60 bytes, and a 4 TiB `op_of` table if trusted.
    let c = bench::c17();
    let lp_of = vec![0; c.len()];
    let key = ArtifactStore::cache_key(&c, &lp_of, 1);
    let mut bytes = Vec::new();
    bytes.extend_from_slice(b"PARSIMC\0");
    bytes.extend_from_slice(&parsim_compile::FORMAT_VERSION.to_le_bytes());
    bytes.extend_from_slice(&key.to_le_bytes());
    bytes.extend_from_slice(&1u32.to_le_bytes());
    bytes.extend_from_slice(&(1u64 << 40).to_le_bytes());
    bytes.extend_from_slice(&[0; 16]);
    stamp(&mut bytes);
    assert!(deserialize_blocks(&bytes, &c, &lp_of, 1).is_none());
}

#[test]
fn an_op_scheduled_twice_is_refused() {
    // Two NANDs over the same inputs: re-point the second op at the first
    // gate and every per-op check still passes (same kind, delay, owner and
    // fanin list) — only "every gate exactly once" can refuse it, or the
    // second gate would never be evaluated.
    let mut b = CircuitBuilder::new("twins");
    let (x, y) = (b.input("x"), b.input("y"));
    let first = b.gate(GateKind::Nand, [x, y], Delay::new(1));
    let second = b.gate(GateKind::Nand, [x, y], Delay::new(1));
    b.output("p", first);
    b.output("q", second);
    let c = b.finish().expect("valid circuit");
    let lp_of = vec![0; c.len()];
    let key = ArtifactStore::cache_key(&c, &lp_of, 1);
    let blocks = compile_blocks(&c, &lp_of, 1);
    assert_eq!(blocks[0].ops()[1].gate, second);
    let mut bytes = serialize_blocks(key, &blocks);
    bytes.truncate(bytes.len() - 8);
    let second_op_gate = 24 + 24 + 21;
    bytes[second_op_gate..second_op_gate + 4]
        .copy_from_slice(&(first.index() as u32).to_le_bytes());
    stamp(&mut bytes);
    assert!(deserialize_blocks(&bytes, &c, &lp_of, 1).is_none());
}
