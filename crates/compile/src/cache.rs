//! The on-disk compiled-artifact store.
//!
//! A compiled block set is serialized to a single little-endian binary
//! file (see `DESIGN.md` §8 for the byte layout): a magic tag, a format
//! version, the content key it was compiled for, the per-block core
//! arrays, and an FNV-1a checksum over everything before it. Derived
//! lookup structures (gate→op map, kind runs) are *not* stored — they are
//! rebuilt on load, so the format stays small and the derivation code has
//! a single home.
//!
//! Every load failure — missing file, short file, bad magic, unknown
//! version, checksum mismatch, inconsistent array bounds, or blocks that
//! are not exactly what the compiler lowers the circuit to — degrades to
//! "cache miss": the caller recompiles and overwrites the entry. A corrupt
//! cache can cost time, never correctness.

use std::fs;
use std::io;
use std::ops::Range;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

use parsim_netlist::{Circuit, Fnv1a, GateId};

use crate::block::{kind_code, kind_from_code, CompiledBlock, Op, NO_SEQ_SLOT};
use crate::compile_blocks;

/// Bytecode format version; bump on any layout or semantics change (kind
/// codes, hash function, array meaning). Old-version files are treated as
/// misses, never migrated.
pub const FORMAT_VERSION: u32 = 2;

const MAGIC: [u8; 8] = *b"PARSIMC\0";

/// How a [`ArtifactStore::load_or_compile`] request was satisfied.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheOutcome {
    /// A valid artifact was loaded; compilation was skipped entirely.
    Hit,
    /// No artifact existed; the circuit was compiled and the store
    /// populated.
    MissCompiled,
    /// An artifact existed but failed validation (truncation, bad
    /// checksum, version skew); it was recompiled and rewritten.
    RecompiledCorrupt,
    /// This writer compiled, but a concurrent writer published a valid
    /// artifact for the same key first; the loser discarded its own work
    /// and adopted the winner's artifact.
    RacedAdopted,
}

impl CacheOutcome {
    /// `true` when compilation was skipped.
    pub fn is_hit(self) -> bool {
        matches!(self, CacheOutcome::Hit)
    }

    /// A short stable label for bench JSON and reports.
    pub fn label(self) -> &'static str {
        match self {
            CacheOutcome::Hit => "hit",
            CacheOutcome::MissCompiled => "miss",
            CacheOutcome::RecompiledCorrupt => "recompiled_corrupt",
            CacheOutcome::RacedAdopted => "raced_adopted",
        }
    }
}

/// An on-disk store of compiled block sets, keyed by netlist + partition
/// content hash. The store counts nothing: every request returns its
/// [`CacheOutcome`], and a caller that wants a hit/miss ledger (the
/// server's `/metrics`) tallies the outcomes it is handed. Clones share the
/// directory, so one store can serve concurrent sessions.
#[derive(Debug, Clone)]
pub struct ArtifactStore {
    dir: PathBuf,
}

/// Process-wide writer counter: together with the pid it makes every
/// temporary artifact path unique, so two concurrent writers of the same
/// key can never collide on one tmp file and publish a torn rename.
static WRITER_SEQ: AtomicU64 = AtomicU64::new(0);

impl ArtifactStore {
    /// A store rooted at `dir` (created on first write).
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        ArtifactStore { dir: dir.into() }
    }

    /// The content key for compiling `circuit` under the given per-gate
    /// LP assignment: mixes the order-independent
    /// [`netlist_hash`](Circuit::netlist_hash), the assignment, the LP
    /// count and the format version — any of them changing yields a
    /// different artifact file.
    pub fn cache_key(circuit: &Circuit, lp_of: &[usize], n_lps: usize) -> u64 {
        let mut h = Fnv1a::new();
        h.write_u64(u64::from(FORMAT_VERSION));
        h.write_u64(circuit.netlist_hash());
        h.write_u64(n_lps as u64);
        h.write_u64(lp_of.len() as u64);
        for &lp in lp_of {
            h.write_u64(lp as u64);
        }
        h.finish()
    }

    /// The file an artifact with `key` lives at.
    pub fn path_of(&self, key: u64) -> PathBuf {
        self.dir.join(format!("{key:016x}.parsimc"))
    }

    /// Loads the artifact for `key`, checking its framing and structure
    /// only; `None` on any miss (absent, corrupt, version skew, or a key
    /// mismatch inside the file). Without the circuit it cannot tell a
    /// well-formed forgery from the real artifact, and it trusts the
    /// circuit size the file declares: it is for inspecting and timing the
    /// store, while [`load_or_compile`](Self::load_or_compile), what every
    /// kernel uses, validates against the circuit.
    pub fn load(&self, key: u64) -> Option<Vec<CompiledBlock>> {
        let bytes = fs::read(self.path_of(key)).ok()?;
        let (stored_key, raw) = parse(&bytes)?;
        (stored_key == key).then(|| raw.into_iter().map(RawBlock::assemble).collect())
    }

    /// Loads the artifact for `key` and accepts it only if it holds exactly
    /// the blocks [`compile_blocks`] would produce for `circuit` under
    /// `lp_of`. Returns the blocks and the artifact's size in bytes.
    fn load_for(
        &self,
        key: u64,
        circuit: &Circuit,
        lp_of: &[usize],
        n_lps: usize,
    ) -> Option<(Vec<CompiledBlock>, u64)> {
        let bytes = fs::read(self.path_of(key)).ok()?;
        let (stored_key, blocks) = deserialize_blocks(&bytes, circuit, lp_of, n_lps)?;
        (stored_key == key).then_some((blocks, bytes.len() as u64))
    }

    /// Serializes `blocks` under `key`, atomically (write to a temporary
    /// sibling, then rename): a crash mid-write can leave a stale temp
    /// file, never a torn artifact. Returns the artifact's size in bytes.
    ///
    /// The temporary name is unique per writer (pid + process-wide
    /// sequence), so two concurrent jobs storing the same key each write
    /// their own sibling and the renames serialize at the filesystem —
    /// last rename wins with a complete file either way. The old shared
    /// `.{key}.tmp` name let two writers interleave `fs::write` calls on
    /// one path and publish the resulting splice.
    pub fn store(&self, key: u64, blocks: &[CompiledBlock]) -> io::Result<u64> {
        fs::create_dir_all(&self.dir)?;
        let bytes = serialize_blocks(key, blocks);
        // relaxed: uniqueness only needs atomicity of the counter itself.
        let seq = WRITER_SEQ.fetch_add(1, Ordering::Relaxed);
        let tmp = self.dir.join(format!(".{key:016x}.{}.{seq}.tmp", std::process::id()));
        fs::write(&tmp, &bytes)?;
        fs::rename(&tmp, self.path_of(key))?;
        Ok(bytes.len() as u64)
    }

    /// The cache-or-compile front door: returns the per-LP blocks for
    /// `circuit` under `lp_of`, loading a valid cached artifact when one
    /// exists and compiling (then populating the store) otherwise, with how
    /// the request was satisfied and the size in bytes of the artifact now
    /// in the store (0 if storing failed). The key is hashed once. An
    /// artifact is valid only if it holds exactly the blocks compilation
    /// would produce — a checksum-valid file whose ops disagree with the
    /// circuit is corrupt, recompiled and overwritten. Store
    /// I/O errors are swallowed — the compiled blocks are correct either
    /// way; the cache is an optimization, not a dependency.
    ///
    /// Safe under concurrent callers on the same key: each writer stages
    /// its artifact under a unique temporary name, and a compiler that
    /// finds a valid artifact published while it worked *discards its own
    /// write* and reports [`CacheOutcome::RacedAdopted`] — the winner's
    /// artifact stands, and the compiler is deterministic, so the loser's
    /// blocks are bit-identical to what the artifact holds.
    pub fn load_or_compile(
        &self,
        circuit: &Circuit,
        lp_of: &[usize],
        n_lps: usize,
    ) -> (Vec<CompiledBlock>, CacheOutcome, u64) {
        let key = Self::cache_key(circuit, lp_of, n_lps);
        let existed = self.path_of(key).exists();
        if let Some((blocks, bytes)) = self.load_for(key, circuit, lp_of, n_lps) {
            return (blocks, CacheOutcome::Hit, bytes);
        }
        let blocks = compile_blocks(circuit, lp_of, n_lps);
        let (outcome, bytes) = if let Some((_, bytes)) = self.load_for(key, circuit, lp_of, n_lps) {
            // A concurrent writer published a valid artifact while we
            // compiled: adopt it (skip our own store so we never overwrite
            // a fresher format or bump the file's mtime for nothing).
            (CacheOutcome::RacedAdopted, bytes)
        } else {
            let bytes = self.store(key, &blocks).unwrap_or(0);
            if existed {
                (CacheOutcome::RecompiledCorrupt, bytes)
            } else {
                (CacheOutcome::MissCompiled, bytes)
            }
        };
        (blocks, outcome, bytes)
    }

    /// The store's root directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }
}

fn push_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn push_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Serializes a block set into the versioned, checksummed artifact format.
pub fn serialize_blocks(key: u64, blocks: &[CompiledBlock]) -> Vec<u8> {
    let mut out = Vec::new();
    out.extend_from_slice(&MAGIC);
    push_u32(&mut out, FORMAT_VERSION);
    push_u64(&mut out, key);
    push_u32(&mut out, blocks.len() as u32);
    for b in blocks {
        push_u64(&mut out, b.nets() as u64);
        push_u32(&mut out, b.seq_ops() as u32);
        push_u32(&mut out, b.ops().len() as u32);
        push_u32(&mut out, b.fanins_raw().len() as u32);
        push_u32(&mut out, b.sections().len() as u32);
        for op in b.ops() {
            push_u32(&mut out, op.gate.index() as u32);
            out.push(kind_code(op.kind));
            push_u32(&mut out, op.delay);
            push_u32(&mut out, op.seq_slot);
            push_u32(&mut out, op.fanin_start);
            push_u32(&mut out, op.fanin_len);
        }
        for &f in b.fanins_raw() {
            push_u32(&mut out, f.index() as u32);
        }
        for r in b.sections() {
            push_u32(&mut out, r.start as u32);
            push_u32(&mut out, r.end as u32);
        }
    }
    let mut h = Fnv1a::new();
    h.write(&out);
    push_u64(&mut out, h.finish());
    out
}

/// A bounds-checked little-endian reader over the artifact bytes.
struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn take(&mut self, n: usize) -> Option<&'a [u8]> {
        let end = self.pos.checked_add(n)?;
        let slice = self.bytes.get(self.pos..end)?;
        self.pos = end;
        Some(slice)
    }

    fn u8(&mut self) -> Option<u8> {
        self.take(1).map(|s| s[0])
    }

    fn u32(&mut self) -> Option<u32> {
        self.take(4).map(|s| u32::from_le_bytes(s.try_into().expect("4 bytes")))
    }

    fn u64(&mut self) -> Option<u64> {
        self.take(8).map(|s| u64::from_le_bytes(s.try_into().expect("8 bytes")))
    }
}

/// One block's serialized core arrays, framed and bounds-checked but not
/// yet compared with any circuit, and not yet assembled: the `op_of` table
/// [`CompiledBlock::assemble`] builds is `nets` entries long, so `nets`
/// must be trusted (or checked) first.
struct RawBlock {
    nets: usize,
    seq_ops: usize,
    ops: Vec<Op>,
    fanins: Vec<GateId>,
    sections: Vec<Range<usize>>,
}

impl RawBlock {
    fn assemble(self) -> CompiledBlock {
        CompiledBlock::assemble(self.ops, self.fanins, self.sections, self.seq_ops, self.nets)
    }

    /// `true` when this block is exactly what [`compile_blocks`] lowers LP
    /// `lp`'s share of `circuit` to: the sequential section then the
    /// combinational one, each in (kind code, gate) order, every op naming
    /// a gate `lp` owns with that gate's kind, delay and fanin list, the
    /// fanin array laid out in op order and the section ranges exact.
    fn is_lowering_of(&self, circuit: &Circuit, lp_of: &[usize], lp: usize) -> bool {
        if self.nets != circuit.len() {
            return false;
        }
        let mut fanin_at = 0usize;
        let mut prev: Option<(u8, GateId)> = None;
        for (i, op) in self.ops.iter().enumerate() {
            let g = op.gate;
            let sequential = i < self.seq_ops;
            if i == self.seq_ops {
                prev = None;
            }
            let order = (kind_code(op.kind), g);
            let fanin = circuit.fanin(g);
            let ok = lp_of[g.index()] == lp
                && op.kind == circuit.kind(g)
                && op.kind.is_sequential() == sequential
                && u64::from(op.delay) == circuit.delay(g).ticks()
                && op.seq_slot == if sequential { i as u32 } else { NO_SEQ_SLOT }
                && prev.is_none_or(|p| p < order)
                && op.fanin_start as usize == fanin_at
                && self.fanins.get(fanin_at..fanin_at + fanin.len()) == Some(fanin)
                && op.fanin_len as usize == fanin.len();
            if !ok {
                return false;
            }
            prev = Some(order);
            fanin_at += fanin.len();
        }
        let expected = [0..self.seq_ops, self.seq_ops..self.ops.len()];
        fanin_at == self.fanins.len()
            && self.sections.iter().eq(expected.iter().filter(|r| !r.is_empty()))
    }
}

/// Parses an artifact: magic, version, checksum, and every structural
/// bound (op/fanin/section indices). Returns the stored key and the blocks'
/// core arrays; `None` on any violation.
fn parse(bytes: &[u8]) -> Option<(u64, Vec<RawBlock>)> {
    if bytes.len() < MAGIC.len() + 4 + 8 + 4 + 8 {
        return None;
    }
    let (payload, checksum_bytes) = bytes.split_at(bytes.len() - 8);
    let mut h = Fnv1a::new();
    h.write(payload);
    if h.finish() != u64::from_le_bytes(checksum_bytes.try_into().expect("8 bytes")) {
        return None;
    }
    let mut r = Reader { bytes: payload, pos: 0 };
    if r.take(MAGIC.len())? != MAGIC {
        return None;
    }
    if r.u32()? != FORMAT_VERSION {
        return None;
    }
    let key = r.u64()?;
    let n_blocks = r.u32()? as usize;
    let mut blocks = Vec::with_capacity(n_blocks.min(1 << 16));
    for _ in 0..n_blocks {
        let nets = usize::try_from(r.u64()?).ok()?;
        let seq_ops = r.u32()? as usize;
        let n_ops = r.u32()? as usize;
        let n_fanins = r.u32()? as usize;
        let n_sections = r.u32()? as usize;
        let mut ops = Vec::with_capacity(n_ops.min(1 << 20));
        for _ in 0..n_ops {
            let gate = r.u32()? as usize;
            let kind = kind_from_code(r.u8()?)?;
            let delay = r.u32()?;
            let seq_slot = r.u32()?;
            let fanin_start = r.u32()?;
            let fanin_len = r.u32()?;
            if gate >= nets
                || kind.is_source()
                || (fanin_start as usize).checked_add(fanin_len as usize)? > n_fanins
            {
                return None;
            }
            ops.push(Op { gate: GateId::new(gate), kind, delay, seq_slot, fanin_start, fanin_len });
        }
        let mut fanins = Vec::with_capacity(n_fanins.min(1 << 22));
        for _ in 0..n_fanins {
            let f = r.u32()? as usize;
            if f >= nets {
                return None;
            }
            fanins.push(GateId::new(f));
        }
        let mut sections: Vec<Range<usize>> = Vec::with_capacity(n_sections.min(1 << 16));
        let mut prev_end = 0usize;
        for _ in 0..n_sections {
            let start = r.u32()? as usize;
            let end = r.u32()? as usize;
            if start != prev_end || end < start || end > n_ops {
                return None;
            }
            prev_end = end;
            sections.push(start..end);
        }
        if prev_end != n_ops || seq_ops > n_ops || n_sections > 2 {
            return None;
        }
        blocks.push(RawBlock { nets, seq_ops, ops, fanins, sections });
    }
    if r.pos != payload.len() {
        return None;
    }
    Some((key, blocks))
}

/// Parses an artifact and validates it against the circuit it claims to
/// hold: magic, version, checksum, structure, and then that it holds
/// exactly `n_lps` blocks and each is what [`compile_blocks`] lowers its
/// LP to (every op's kind, delay, fanin list and owner, every non-source
/// gate once, the declared circuit size checked before any table is sized
/// from it). Returns the stored key and the blocks with their derived
/// structures rebuilt; `None` on any violation.
pub fn deserialize_blocks(
    bytes: &[u8],
    circuit: &Circuit,
    lp_of: &[usize],
    n_lps: usize,
) -> Option<(u64, Vec<CompiledBlock>)> {
    let (key, raw) = parse(bytes)?;
    let scheduled: usize = raw.iter().map(|b| b.ops.len()).sum();
    let non_source = circuit.iter().filter(|(_, g)| !g.kind().is_source()).count();
    let valid = raw.len() == n_lps
        && lp_of.len() == circuit.len()
        && scheduled == non_source
        && raw.iter().enumerate().all(|(lp, b)| b.is_lowering_of(circuit, lp_of, lp));
    valid.then(|| (key, raw.into_iter().map(RawBlock::assemble).collect()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use parsim_netlist::generate;

    fn zoo_blocks() -> (Circuit, Vec<usize>, Vec<CompiledBlock>) {
        let c = generate::random_dag(&generate::RandomDagConfig {
            gates: 240,
            seq_fraction: 0.2,
            seed: 21,
            ..Default::default()
        });
        let lp_of: Vec<usize> = (0..c.len()).map(|i| i % 4).collect();
        let blocks = compile_blocks(&c, &lp_of, 4);
        (c, lp_of, blocks)
    }

    #[test]
    fn serialization_round_trips() {
        let (c, lp_of, blocks) = zoo_blocks();
        let key = ArtifactStore::cache_key(&c, &lp_of, 4);
        let bytes = serialize_blocks(key, &blocks);
        let (stored_key, loaded) =
            deserialize_blocks(&bytes, &c, &lp_of, 4).expect("valid artifact");
        assert_eq!(stored_key, key);
        assert_eq!(loaded, blocks, "derived structures rebuilt identically");
    }

    #[test]
    fn previous_format_version_is_refused() {
        let (c, lp_of, blocks) = zoo_blocks();
        let key = ArtifactStore::cache_key(&c, &lp_of, 4);
        let current = serialize_blocks(key, &blocks);
        // The same payload stamped with the previous version and a valid
        // checksum: only the version check can refuse it.
        let restamp = |version: u32| {
            let mut bytes = current[..current.len() - 8].to_vec();
            bytes[MAGIC.len()..MAGIC.len() + 4].copy_from_slice(&version.to_le_bytes());
            let mut h = Fnv1a::new();
            h.write(&bytes);
            push_u64(&mut bytes, h.finish());
            bytes
        };
        assert_eq!(restamp(FORMAT_VERSION), current);
        assert!(deserialize_blocks(&restamp(FORMAT_VERSION - 1), &c, &lp_of, 4).is_none());
    }

    #[test]
    fn every_single_byte_corruption_is_detected() {
        let (c, lp_of, blocks) = zoo_blocks();
        let key = ArtifactStore::cache_key(&c, &lp_of, 4);
        let bytes = serialize_blocks(key, &blocks);
        // Flip one byte at a sample of positions across the whole file
        // (including the checksum itself): each must fail validation.
        for pos in (0..bytes.len()).step_by(37).chain([bytes.len() - 1]) {
            let mut corrupt = bytes.clone();
            corrupt[pos] ^= 0x5A;
            assert!(
                deserialize_blocks(&corrupt, &c, &lp_of, 4).is_none(),
                "corruption at byte {pos} accepted"
            );
        }
        // Truncation at any point must fail too.
        for cut in [0, 7, bytes.len() / 2, bytes.len() - 1] {
            assert!(
                deserialize_blocks(&bytes[..cut], &c, &lp_of, 4).is_none(),
                "truncation at {cut} accepted"
            );
        }
    }

    #[test]
    fn store_cold_warm_and_corrupt_cycle() {
        let dir = std::env::temp_dir().join(format!("parsimc-test-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let store = ArtifactStore::new(&dir);
        let (c, lp_of, _) = zoo_blocks();

        let key = ArtifactStore::cache_key(&c, &lp_of, 4);
        let on_disk = || fs::metadata(store.path_of(key)).unwrap().len();
        let (cold, outcome, bytes) = store.load_or_compile(&c, &lp_of, 4);
        assert_eq!(outcome, CacheOutcome::MissCompiled);
        assert_eq!(bytes, on_disk(), "a miss reports the artifact it stored");
        let (warm, outcome, bytes) = store.load_or_compile(&c, &lp_of, 4);
        assert_eq!(outcome, CacheOutcome::Hit);
        assert_eq!(bytes, on_disk(), "a hit reports the artifact it read");
        assert_eq!(cold, warm, "cache hit returns identical blocks");

        // Scribble over the artifact: the next request must detect it,
        // recompile, and heal the entry.
        fs::write(store.path_of(key), b"definitely not bytecode").unwrap();
        let (healed, outcome, bytes) = store.load_or_compile(&c, &lp_of, 4);
        assert_eq!(outcome, CacheOutcome::RecompiledCorrupt);
        assert_eq!(bytes, on_disk());
        assert_eq!(healed, cold);
        let (warm2, outcome, _) = store.load_or_compile(&c, &lp_of, 4);
        assert_eq!(outcome, CacheOutcome::Hit);
        assert_eq!(warm2, cold);

        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn concurrent_writers_on_one_key_race_cleanly() {
        // N threads × the same netlist hash, all cold: at most one thread
        // wins the store; every loser must either hit (it started late
        // enough to see the winner's artifact) or adopt (it compiled but
        // found the winner published first). Whatever the interleaving,
        // every thread's blocks are bit-identical and the on-disk artifact
        // stays valid — the shared-tmp-path splice this guards against
        // produced torn files two readers then both "healed", repeatedly.
        const THREADS: usize = 8;
        let dir = std::env::temp_dir().join(format!("parsimc-race-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let store = ArtifactStore::new(&dir);
        let (c, lp_of, reference) = zoo_blocks();

        let results: Vec<(Vec<CompiledBlock>, CacheOutcome, u64)> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..THREADS)
                .map(|_| {
                    let store = store.clone();
                    let (c, lp_of) = (&c, &lp_of);
                    scope.spawn(move || store.load_or_compile(c, lp_of, 4))
                })
                .collect();
            handles.into_iter().map(|h| h.join().expect("writer thread")).collect()
        });

        for (blocks, outcome, _) in &results {
            assert_eq!(blocks, &reference, "every racer returns identical blocks");
            assert_ne!(
                *outcome,
                CacheOutcome::RecompiledCorrupt,
                "no racer may ever observe a torn artifact"
            );
        }
        let key = ArtifactStore::cache_key(&c, &lp_of, 4);
        assert_eq!(store.load(key).as_ref(), Some(&reference), "final artifact is valid");
        assert!(
            results.iter().any(|(_, outcome, _)| *outcome == CacheOutcome::MissCompiled),
            "someone compiled cold"
        );
        // No stale unique-tmp siblings left behind by losers or winners.
        let leftovers: Vec<_> = fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().into_string().unwrap())
            .filter(|n| n.ends_with(".tmp"))
            .collect();
        assert!(leftovers.is_empty(), "stale tmp files: {leftovers:?}");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn raced_adopted_is_reported_when_a_winner_published_mid_compile() {
        // Deterministic reproduction of the race window: the artifact is
        // absent when the request starts, and appears (valid) before the
        // request's own store. `load_or_compile` re-checks after
        // compiling, so simulate the winner by pre-publishing and calling
        // the slow path by hand.
        let dir = std::env::temp_dir().join(format!("parsimc-adopt-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let store = ArtifactStore::new(&dir);
        let (c, lp_of, blocks) = zoo_blocks();
        let key = ArtifactStore::cache_key(&c, &lp_of, 4);
        // "Winner" publishes while the "loser" is still compiling.
        store.store(key, &blocks).unwrap();
        // The loser's full request now sees the artifact up front (a hit);
        // the adoption path itself is the post-compile re-check, which the
        // concurrent stress test above exercises under a real race. Here,
        // assert the outcome labels stay coherent.
        let (_, outcome, _) = store.load_or_compile(&c, &lp_of, 4);
        assert_eq!(outcome, CacheOutcome::Hit);
        assert_eq!(outcome.label(), "hit");
        assert_eq!(CacheOutcome::RacedAdopted.label(), "raced_adopted");
        assert!(!CacheOutcome::RacedAdopted.is_hit());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn different_partitions_key_differently() {
        let (c, lp_of, _) = zoo_blocks();
        let base = ArtifactStore::cache_key(&c, &lp_of, 4);
        let mut other = lp_of.clone();
        let movable = (0..other.len()).find(|&i| other[i] != 0).unwrap();
        other[movable] = 0;
        assert_ne!(base, ArtifactStore::cache_key(&c, &other, 4));
        assert_ne!(base, ArtifactStore::cache_key(&c, &lp_of, 5), "LP count is part of the key");
    }
}
