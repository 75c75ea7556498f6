//! The bytecode: ops, blocks, and the netlist-to-block lowering.

use std::ops::Range;

use parsim_logic::GateKind;
use parsim_netlist::{Circuit, GateId};

/// Sentinel `seq_slot` for combinational ops.
pub const NO_SEQ_SLOT: u32 = u32::MAX;

/// Sentinel op index for gates a block does not own.
pub const NO_OP: u32 = u32::MAX;

/// One compiled evaluation: a gate, its kind, its own delay, and a slice
/// of the block's flat fanin array.
///
/// `delay` is carried per op — multi-delay circuits compile like any
/// other; unit delay is a backend precondition (bit-parallel, oblivious),
/// not a bytecode assumption.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Op {
    /// The gate (and the net it drives).
    pub gate: GateId,
    /// What to evaluate.
    pub kind: GateKind,
    /// The gate's output delay in virtual-time ticks.
    pub delay: u32,
    /// For sequential ops, the index of this op's `(prev_clk, q)` slot in
    /// a seq-indexed state array; [`NO_SEQ_SLOT`] for combinational ops.
    /// (Backends with circuit-indexed state ignore it.)
    pub seq_slot: u32,
    pub(crate) fanin_start: u32,
    pub(crate) fanin_len: u32,
}

/// A stable byte code per gate kind — the serialized form of
/// [`GateKind`], independent of the enum's declaration order so cached
/// artifacts survive refactors. Sort key for kind runs.
pub(crate) fn kind_code(kind: GateKind) -> u8 {
    match kind {
        GateKind::Buf => 0,
        GateKind::Not => 1,
        GateKind::And => 2,
        GateKind::Nand => 3,
        GateKind::Or => 4,
        GateKind::Nor => 5,
        GateKind::Xor => 6,
        GateKind::Xnor => 7,
        GateKind::Mux2 => 8,
        GateKind::Tribuf => 9,
        GateKind::Bus => 10,
        GateKind::Dff => 11,
        GateKind::Latch => 12,
        GateKind::Input => 13,
        GateKind::Const0 => 14,
        GateKind::Const1 => 15,
    }
}

/// Where an op sits inside its section: kind code, then fanin count, then
/// gate id, packed into one integer with that order (the gate id is its
/// low 32 bits). Kind-major makes the runs; ordering each run by fanin
/// count gives the per-op fanin loop one trip count for long stretches,
/// which the branch predictor learns, where gate-id order changes it at
/// random.
pub(crate) fn schedule_key(kind: GateKind, fanin: &[GateId], gate: GateId) -> u128 {
    (u128::from(kind_code(kind)) << 96) | ((fanin.len() as u128) << 32) | gate.index() as u128
}

/// Inverse of [`kind_code`]; `None` for bytes no kind maps to.
pub(crate) fn kind_from_code(code: u8) -> Option<GateKind> {
    Some(match code {
        0 => GateKind::Buf,
        1 => GateKind::Not,
        2 => GateKind::And,
        3 => GateKind::Nand,
        4 => GateKind::Or,
        5 => GateKind::Nor,
        6 => GateKind::Xor,
        7 => GateKind::Xnor,
        8 => GateKind::Mux2,
        9 => GateKind::Tribuf,
        10 => GateKind::Bus,
        11 => GateKind::Dff,
        12 => GateKind::Latch,
        13 => GateKind::Input,
        14 => GateKind::Const0,
        15 => GateKind::Const1,
        _ => return None,
    })
}

/// One LP's (or the whole circuit's) gates lowered to linear bytecode.
///
/// Layout: `ops[..seq_ops]` is the sequential section (flip-flops and
/// latches), followed by *one* combinational section holding every other
/// owned gate. Each section is sorted by kind, then fanin count, then gate
/// id, so the precomputed [`runs`](Self::runs) hold at most one run per
/// gate kind per section — an executor dispatches a dozen times per sweep
/// however deep the circuit is — and never cross the section boundary;
/// inside a run the fanin count never decreases, so a fanin loop's trip
/// count changes only a few times per run instead of at random.
/// [`sections`](Self::sections) exposes the section ranges (sequential section
/// first, when non-empty) — the unit of trace spans.
///
/// Evaluation-order note: the schedule is *not* topological, and need not
/// be. Both executors may evaluate ops in any order within a tick/batch
/// because every gate reads *net values* (updated by event application,
/// never during evaluation) and writes only its own state and output, and
/// each gate appears at most once per batch — the workspace-wide
/// once-per-timestamp contract.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CompiledBlock {
    ops: Vec<Op>,
    fanins: Vec<GateId>,
    /// Section ranges over `ops`: the sequential section (if any), then
    /// the combinational section (if any).
    sections: Vec<Range<usize>>,
    seq_ops: usize,
    nets: usize,
    /// Derived: circuit gate index → op index, [`NO_OP`] if not owned.
    op_of: Vec<u32>,
    /// Derived: maximal same-kind runs over `ops`, within sections.
    runs: Vec<(GateKind, Range<usize>)>,
}

impl CompiledBlock {
    /// Compiles the whole circuit as one block.
    pub fn compile(circuit: &Circuit) -> Self {
        Self::compile_filtered(circuit, |_| true)
    }

    /// Compiles the subset of `circuit` owned by one LP (`owns` decides
    /// membership).
    pub fn compile_filtered(circuit: &Circuit, owns: impl Fn(GateId) -> bool) -> Self {
        // Each owned gate's schedule key, taken once: sorting compares
        // integers instead of looking gates up.
        let (mut seq, mut comb) = (Vec::new(), Vec::new());
        for id in circuit.ids().filter(|&id| owns(id)) {
            let g = circuit.gate(id);
            let key = schedule_key(g.kind(), g.fanin(), id);
            if g.kind().is_sequential() {
                seq.push(key);
            } else if !g.kind().is_source() {
                comb.push(key);
            }
        }
        let seq_ops = seq.len();

        let mut ops: Vec<Op> = Vec::with_capacity(seq_ops + comb.len());
        let mut fanins: Vec<GateId> = Vec::new();
        let mut sections: Vec<Range<usize>> = Vec::new();
        for mut keys in [seq, comb] {
            if keys.is_empty() {
                continue;
            }
            keys.sort_unstable();
            let start = ops.len();
            for key in keys {
                let id = GateId::new(key as u32 as usize);
                let g = circuit.gate(id);
                let delay = g.delay().ticks();
                assert!(delay <= u64::from(u32::MAX), "gate delay overflows the op encoding");
                let fanin_start = u32::try_from(fanins.len()).expect("fanin array fits u32");
                fanins.extend_from_slice(g.fanin());
                // The sequential section comes first, so a sequential
                // op's state slot is its position in the schedule.
                let seq_slot = if ops.len() < seq_ops { ops.len() as u32 } else { NO_SEQ_SLOT };
                ops.push(Op {
                    gate: id,
                    kind: g.kind(),
                    delay: delay as u32,
                    seq_slot,
                    fanin_start,
                    fanin_len: g.fanin().len() as u32,
                });
            }
            sections.push(start..ops.len());
        }

        Self::assemble(ops, fanins, sections, seq_ops, circuit.len())
    }

    /// Builds a block from its serialized core fields, recomputing the
    /// derived lookup structures (`op_of`, kind runs). Shared by the
    /// lowering above and [`deserialize_blocks`](crate::deserialize_blocks).
    pub(crate) fn assemble(
        ops: Vec<Op>,
        fanins: Vec<GateId>,
        sections: Vec<Range<usize>>,
        seq_ops: usize,
        nets: usize,
    ) -> Self {
        let mut op_of = vec![NO_OP; nets];
        for (i, op) in ops.iter().enumerate() {
            op_of[op.gate.index()] = i as u32;
        }
        let mut runs: Vec<(GateKind, Range<usize>)> = Vec::new();
        for section in &sections {
            let mut i = section.start;
            while i < section.end {
                let kind = ops[i].kind;
                let mut j = i + 1;
                while j < section.end && ops[j].kind == kind {
                    j += 1;
                }
                runs.push((kind, i..j));
                i = j;
            }
        }
        CompiledBlock { ops, fanins, sections, seq_ops, nets, op_of, runs }
    }

    /// The straight-line schedule: sequential section, then the
    /// combinational section.
    pub fn ops(&self) -> &[Op] {
        &self.ops
    }

    /// Section index ranges over [`ops`](Self::ops) — the unit of `Charge`
    /// spans: the sequential section first, then the combinational one; an
    /// empty section has no range, so at most two.
    pub fn sections(&self) -> &[Range<usize>] {
        &self.sections
    }

    /// Maximal same-kind runs over the schedule (never crossing a section
    /// boundary) — what the dispatch-free executors iterate.
    pub fn runs(&self) -> &[(GateKind, Range<usize>)] {
        &self.runs
    }

    /// The fanin nets of `op`.
    #[inline]
    pub fn fanin(&self, op: &Op) -> &[GateId] {
        &self.fanins[op.fanin_start as usize..(op.fanin_start + op.fanin_len) as usize]
    }

    /// The op evaluating `gate`, or `None` if this block does not own it
    /// (sources are owned by nobody).
    #[inline]
    pub fn op_of(&self, gate: GateId) -> Option<&Op> {
        match self.op_of[gate.index()] {
            NO_OP => None,
            i => Some(&self.ops[i as usize]),
        }
    }

    /// Number of sequential (state-carrying) ops; `ops()[..seq_ops()]` is
    /// the sequential section.
    pub fn seq_ops(&self) -> usize {
        self.seq_ops
    }

    /// Number of nets in the source circuit (state array length).
    pub fn nets(&self) -> usize {
        self.nets
    }

    pub(crate) fn fanins_raw(&self) -> &[GateId] {
        &self.fanins
    }
}

/// Compiles one block per LP from a per-gate assignment: `lp_of[g]` is the
/// LP owning gate `g`, `n_lps` the block count.
///
/// # Panics
///
/// Panics if `lp_of` does not cover every gate or names an LP `≥ n_lps`.
pub fn compile_blocks(circuit: &Circuit, lp_of: &[usize], n_lps: usize) -> Vec<CompiledBlock> {
    assert_eq!(lp_of.len(), circuit.len(), "assignment must cover every gate");
    assert!(lp_of.iter().all(|&l| l < n_lps), "LP index out of range");
    (0..n_lps)
        .map(|lp| CompiledBlock::compile_filtered(circuit, |id| lp_of[id.index()] == lp))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use parsim_netlist::{bench, generate};

    #[test]
    fn schedule_covers_every_non_source_gate_once() {
        let c = generate::random_dag(&generate::RandomDagConfig {
            gates: 300,
            seq_fraction: 0.2,
            seed: 9,
            ..Default::default()
        });
        let b = CompiledBlock::compile(&c);
        let mut seen = vec![false; c.len()];
        for op in b.ops() {
            assert!(!seen[op.gate.index()], "gate scheduled twice");
            seen[op.gate.index()] = true;
            assert!(!c.kind(op.gate).is_source());
            assert_eq!(b.fanin(op), c.fanin(op.gate));
            assert_eq!(u64::from(op.delay), c.delay(op.gate).ticks());
        }
        let scheduled = seen.iter().filter(|&&s| s).count();
        let sources = c.iter().filter(|(_, g)| g.kind().is_source()).count();
        assert_eq!(scheduled + sources, c.len());
        assert_eq!(b.sections().iter().map(ExactSizeIterator::len).sum::<usize>(), b.ops().len());
    }

    #[test]
    fn sequential_section_precedes_levels_and_owns_slots() {
        let c = generate::random_dag(&generate::RandomDagConfig {
            gates: 200,
            seq_fraction: 0.3,
            seed: 4,
            ..Default::default()
        });
        let b = CompiledBlock::compile(&c);
        let mut slots = std::collections::BTreeSet::new();
        for (i, op) in b.ops().iter().enumerate() {
            if i < b.seq_ops() {
                assert!(op.kind.is_sequential());
                assert!(slots.insert(op.seq_slot), "seq slot reused");
            } else {
                assert!(!op.kind.is_sequential());
                assert_eq!(op.seq_slot, NO_SEQ_SLOT);
            }
        }
        assert_eq!(slots.len(), b.seq_ops());
    }

    /// The layout contract of the two-section schedule, on the whole
    /// circuit and on every block of a partition.
    #[test]
    fn schedule_is_two_kind_major_sections() {
        let deep = generate::random_dag(&generate::RandomDagConfig {
            gates: 600,
            seq_fraction: 0.2,
            seed: 31,
            ..Default::default()
        });
        let comb_only = bench::c17();
        let lp_of: Vec<usize> = (0..deep.len()).map(|i| i % 3).collect();
        let mut blocks = compile_blocks(&deep, &lp_of, 3);
        blocks.push(CompiledBlock::compile(&deep));
        blocks.push(CompiledBlock::compile(&comb_only));
        for b in &blocks {
            let sections = b.sections();
            assert!(sections.len() <= 2, "{} sections", sections.len());
            assert_eq!(sections.first().map_or(0, |s| s.start), 0);
            assert_eq!(sections.last().map_or(0, |s| s.end), b.ops().len());
            if b.seq_ops() > 0 {
                assert_eq!(sections[0], 0..b.seq_ops(), "sequential section comes first");
            }
            for (i, op) in b.ops().iter().enumerate() {
                let want = if i < b.seq_ops() { i as u32 } else { NO_SEQ_SLOT };
                assert_eq!(op.seq_slot, want, "seq slots count 0.. through the first section");
                assert_eq!(op.kind.is_sequential(), i < b.seq_ops());
                assert_eq!(b.op_of(op.gate), Some(op), "op_of finds the op back");
            }
            let mut kinds_present = 0;
            for section in sections {
                let ops = &b.ops()[section.clone()];
                let key = |op: &Op| (kind_code(op.kind), b.fanin(op).len(), op.gate);
                assert!(
                    ops.windows(2).all(|w| key(&w[0]) < key(&w[1])),
                    "kind-major, then fanin count, then id"
                );
                kinds_present += 1 + ops.windows(2).filter(|w| w[0].kind != w[1].kind).count();
            }
            assert_eq!(b.runs().len(), kinds_present, "one run per kind present per section");
            for (_, run) in b.runs() {
                let arity: Vec<usize> =
                    b.ops()[run.clone()].iter().map(|op| b.fanin(op).len()).collect();
                assert!(
                    arity.windows(2).all(|w| w[0] <= w[1]),
                    "fanin counts never decrease in a run"
                );
            }
        }
        let mixed_arity = |b: &CompiledBlock| {
            b.runs().iter().any(|(_, run)| {
                let ops = &b.ops()[run.clone()];
                ops.iter().any(|op| b.fanin(op).len() != b.fanin(&ops[0]).len())
            })
        };
        assert!(mixed_arity(&blocks[3]), "some run mixes fanin counts, so the order is exercised");
        let scheduled: usize = blocks[..3].iter().map(|b| b.ops().len()).sum();
        assert_eq!(scheduled, blocks[3].ops().len(), "LP blocks tile the whole-circuit block");
        assert_eq!(blocks[4].sections().len(), 1, "a combinational circuit has one section");
        let unowned = GateId::new(lp_of.iter().position(|&lp| lp != 0).expect("three LPs"));
        assert!(blocks[0].op_of(unowned).is_none());
    }

    #[test]
    fn runs_are_maximal_and_cover_the_schedule() {
        let c = generate::random_dag(&generate::RandomDagConfig {
            gates: 400,
            seq_fraction: 0.15,
            seed: 12,
            ..Default::default()
        });
        let b = CompiledBlock::compile(&c);
        let mut covered = 0usize;
        for (w, (kind, range)) in b.runs().iter().enumerate() {
            assert_eq!(covered, range.start);
            covered = range.end;
            assert!(b.ops()[range.clone()].iter().all(|op| op.kind == *kind));
            if let Some((prev_kind, prev)) = w.checked_sub(1).map(|p| &b.runs()[p]) {
                // Maximality: adjacent same-kind runs only at section seams.
                if prev_kind == kind {
                    assert!(b.sections().iter().any(|s| s.start == prev.end));
                }
            }
        }
        assert_eq!(covered, b.ops().len());
    }

    #[test]
    fn partitioned_blocks_tile_the_circuit() {
        let c = generate::random_dag(&generate::RandomDagConfig {
            gates: 250,
            seq_fraction: 0.2,
            seed: 7,
            ..Default::default()
        });
        let lp_of: Vec<usize> = (0..c.len()).map(|i| i % 3).collect();
        let blocks = compile_blocks(&c, &lp_of, 3);
        let mut owner = vec![None; c.len()];
        for (lp, b) in blocks.iter().enumerate() {
            assert_eq!(b.nets(), c.len());
            for op in b.ops() {
                assert_eq!(lp_of[op.gate.index()], lp);
                assert!(owner[op.gate.index()].replace(lp).is_none(), "gate compiled twice");
                assert!(b.op_of(op.gate).is_some());
            }
        }
        for id in c.ids() {
            assert_eq!(owner[id.index()].is_none(), c.kind(id).is_source());
        }
    }

    #[test]
    fn kind_codes_round_trip_and_are_stable() {
        for &k in GateKind::all() {
            assert_eq!(kind_from_code(kind_code(k)), Some(k));
        }
        assert_eq!(kind_from_code(200), None);
        // Frozen values: cached artifacts depend on them (see DESIGN §8).
        assert_eq!(kind_code(GateKind::Buf), 0);
        assert_eq!(kind_code(GateKind::Dff), 11);
        assert_eq!(kind_code(GateKind::Const1), 15);
    }
}
