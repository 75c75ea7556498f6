//! The bit-parallel specialization of the workspace compiler.
//!
//! The netlist-to-bytecode lowering lives in `parsim-compile` (one
//! compiler, every backend); this module adds the oblivious bit-parallel
//! precondition — unit gate delays — and re-exposes the op under the name
//! the kernel grew up with.

use parsim_netlist::Circuit;

pub use parsim_compile::{CompiledBlock, Op as CompiledOp};

/// Checks the oblivious bit-parallel precondition before
/// [`CompiledBlock::compile`]: the kernel is double-buffered (tick `t`
/// values are a pure function of tick `t − 1` values), which is only the
/// circuit's behaviour when every gate takes exactly one tick.
///
/// # Panics
///
/// Panics if any non-source gate has a delay other than one tick — the
/// oblivious discipline's precondition, shared with `ObliviousSimulator`.
pub(crate) fn assert_unit_delays(circuit: &Circuit) {
    for (_, g) in circuit.iter() {
        assert!(
            g.kind().is_source() || g.delay().ticks() == 1,
            "bit-parallel simulation requires unit gate delays, found {} on a {}",
            g.delay(),
            g.kind()
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use parsim_netlist::{generate, DelayModel};

    #[test]
    fn schedule_covers_every_non_source_gate_once() {
        let c = generate::random_dag(&generate::RandomDagConfig {
            gates: 300,
            seq_fraction: 0.2,
            seed: 9,
            ..Default::default()
        });
        let cc = CompiledBlock::compile(&c);
        let mut seen = vec![false; c.len()];
        for op in cc.ops() {
            assert!(!seen[op.gate.index()], "gate scheduled twice");
            seen[op.gate.index()] = true;
            assert!(!c.kind(op.gate).is_source());
            assert_eq!(cc.fanin(op), c.fanin(op.gate));
        }
        let scheduled = seen.iter().filter(|&&s| s).count();
        let sources = c.iter().filter(|(_, g)| g.kind().is_source()).count();
        assert_eq!(scheduled + sources, c.len());
        assert_eq!(cc.sections().iter().map(ExactSizeIterator::len).sum::<usize>(), cc.ops().len());
    }

    #[test]
    #[should_panic(expected = "unit gate delays")]
    fn rejects_non_unit_delays() {
        let c = generate::ripple_adder(2, DelayModel::PerKind);
        assert_unit_delays(&c);
    }
}
