//! Topological levelization of the combinational network.

use crate::{graph, Circuit, GateId};

/// Topological levels of a circuit's combinational network.
///
/// Sources (primary inputs, constants, flip-flops and latches) sit at level
/// 0; every other gate sits one level above its deepest fanin. Levelization
/// drives **levelized partitioning** (§III) and the depth statistic
/// (critical path length in gate stages).
///
/// # Examples
///
/// ```
/// use parsim_netlist::{bench, Levelization};
///
/// let c = bench::c17();
/// let lv = Levelization::of(&c);
/// assert_eq!(lv.depth(), 3); // c17 is three NAND stages deep
/// // Every gate is at a strictly higher level than each of its fanins.
/// for id in c.ids() {
///     for &f in c.fanin(id) {
///         assert!(lv.level(f) < lv.level(id));
///     }
/// }
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Levelization {
    levels: Vec<u32>,
    order: Vec<GateId>,
    depth: u32,
}

impl Levelization {
    /// Levelizes a circuit.
    ///
    /// Always succeeds: construction already guarantees the combinational
    /// network is acyclic.
    pub fn of(circuit: &Circuit) -> Self {
        let mut levels = vec![0u32; circuit.len()];
        let (order, _) = graph::peel(
            |i| (circuit.gates[i].kind, circuit.gates[i].fanin.len()),
            &circuit.fanout_start,
            &circuit.fanout,
            |i, j| levels[j] = levels[j].max(levels[i] + 1),
        );
        debug_assert_eq!(
            order.len(),
            circuit.len(),
            "circuit invariant: combinational network is acyclic"
        );
        let depth = levels.iter().copied().max().unwrap_or(0);
        Levelization { levels, order, depth }
    }

    /// The level of a gate (0 for sources and sequential elements).
    pub fn level(&self, id: GateId) -> u32 {
        self.levels[id.index()]
    }

    /// All gates in a valid topological evaluation order.
    pub fn order(&self) -> &[GateId] {
        &self.order
    }

    /// The maximum level — the circuit depth in gate stages.
    pub fn depth(&self) -> u32 {
        self.depth
    }

    /// Gates grouped by level, from level 0 upwards.
    pub fn by_level(&self) -> Vec<Vec<GateId>> {
        let mut groups = vec![Vec::new(); self.depth as usize + 1];
        for (i, &lv) in self.levels.iter().enumerate() {
            groups[lv as usize].push(GateId::new(i));
        }
        groups
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{bench, CircuitBuilder, Delay};
    use parsim_logic::GateKind;

    #[test]
    fn chain_levels_increase() {
        let mut b = CircuitBuilder::new("chain");
        let mut cur = b.input("a");
        for i in 0..5 {
            cur = b.named_gate(format!("n{i}"), GateKind::Not, [cur], Delay::UNIT);
        }
        b.output("y", cur);
        let c = b.finish().unwrap();
        let lv = Levelization::of(&c);
        assert_eq!(lv.depth(), 5);
        assert_eq!(lv.level(c.inputs()[0]), 0);
        assert_eq!(lv.level(c.outputs()[0]), 5);
    }

    #[test]
    fn dff_is_a_source() {
        let mut b = CircuitBuilder::new("seq");
        let clk = b.input("clk");
        let q = b.declare("q");
        let nq = b.named_gate("nq", GateKind::Not, [q], Delay::UNIT);
        b.define(q, GateKind::Dff, [clk, nq], Delay::UNIT);
        b.output("q", q);
        let c = b.finish().unwrap();
        let lv = Levelization::of(&c);
        assert_eq!(lv.level(q), 0);
        assert_eq!(lv.level(nq), 1);
    }

    #[test]
    fn order_is_topological() {
        let c = bench::c17();
        let lv = Levelization::of(&c);
        let pos: std::collections::HashMap<_, _> =
            lv.order().iter().enumerate().map(|(i, &g)| (g, i)).collect();
        for id in c.ids() {
            if c.kind(id).is_sequential() {
                continue;
            }
            for &f in c.fanin(id) {
                assert!(pos[&f] < pos[&id], "{f} must precede {id}");
            }
        }
    }

    #[test]
    fn by_level_partitions_all_gates() {
        let c = bench::c17();
        let lv = Levelization::of(&c);
        let total: usize = lv.by_level().iter().map(Vec::len).sum();
        assert_eq!(total, c.len());
        for (l, group) in lv.by_level().iter().enumerate() {
            for &g in group {
                assert_eq!(lv.level(g) as usize, l);
            }
        }
    }
}
