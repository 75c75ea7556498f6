//! The two walks every circuit analysis shares: the combinational peel and
//! the strongly connected components of an edge subset.
//!
//! The builder's cycle check and [`Levelization`](crate::Levelization) run
//! one peel; the cone partitioner and lint's zero-delay-loop search build
//! one [`Condensation`], each with its own edge subset.

use parsim_logic::GateKind;

use crate::circuit::FanoutEntry;
use crate::{Circuit, GateId};

/// Whether an edge into a gate of kind `sink` is combinational. Every input
/// of a flip-flop or latch is a legal feedback point, so no edge into one
/// is.
pub(crate) fn is_combinational_sink(sink: GateKind) -> bool {
    !sink.is_sequential()
}

/// Kahn's algorithm over the combinational edges of a graph given per gate
/// as its kind and fanin count (`gate(i)`), plus the flat fanout layout the
/// builder and [`Circuit`] share: net `i`'s sinks are
/// `fanout[fanout_start[i]..fanout_start[i + 1]]`. `visit(i, j)` sees each
/// combinational edge as its driver `i` leaves.
///
/// Returns the peeled gates in first-in first-out order (every gate with no
/// combinational fanin in id order, then each other gate once its last
/// combinational fanin has left), which is every gate unless a
/// combinational cycle stopped the peel. Also returns, per gate, its
/// combinational fanin pins whose driver was never peeled: zero on every
/// peeled gate, nonzero on or downstream of a cycle, and independent of the
/// pop order.
pub(crate) fn peel(
    gate: impl Fn(usize) -> (GateKind, usize),
    fanout_start: &[usize],
    fanout: &[FanoutEntry],
    mut visit: impl FnMut(usize, usize),
) -> (Vec<GateId>, Vec<usize>) {
    let n = fanout_start.len() - 1;
    let (mut combinational, mut residual) = (Vec::with_capacity(n), Vec::with_capacity(n));
    for i in 0..n {
        let (kind, pins) = gate(i);
        let counted = is_combinational_sink(kind);
        combinational.push(counted);
        residual.push(if counted { pins } else { 0 });
    }
    // The order doubles as the queue: `head` is the next gate to pop.
    let mut order = Vec::with_capacity(n);
    order.extend((0..n).filter(|&i| residual[i] == 0).map(GateId::new));
    let mut head = 0;
    while let Some(&id) = order.get(head) {
        head += 1;
        for e in &fanout[fanout_start[id.index()]..fanout_start[id.index() + 1]] {
            let j = e.gate.index();
            if combinational[j] {
                visit(id.index(), j);
                residual[j] -= 1;
                if residual[j] == 0 {
                    order.push(e.gate);
                }
            }
        }
    }
    (order, residual)
}

/// A circuit's gates grouped into the strongly connected components of a
/// subset of its edges, and the DAG those edges leave between components.
///
/// Components are numbered in Tarjan's completion order, so every kept
/// edge between two components runs from a lower number (the driver's) to
/// a higher one (the reader's).
///
/// # Examples
///
/// A flip-flop loop is one component over every edge, and falls apart
/// without the edges into sequential elements:
///
/// ```
/// use parsim_logic::GateKind;
/// use parsim_netlist::{CircuitBuilder, Condensation, Delay};
///
/// let mut b = CircuitBuilder::new("toggle");
/// let clk = b.input("clk");
/// let q = b.declare("q");
/// let nq = b.gate(GateKind::Not, [q], Delay::UNIT);
/// b.define(q, GateKind::Dff, [clk, nq], Delay::UNIT);
/// b.output("q", q);
/// let c = b.finish()?;
///
/// let all = Condensation::of(&c, |_, _| true);
/// assert_eq!(all.len(), 2); // {clk}, {q, nq}
/// assert_eq!(all.component(q), all.component(nq));
/// assert_eq!(all.fanin(all.component(q)), &[all.component(clk)]);
///
/// let comb = Condensation::of(&c, |_, to| !c.kind(to).is_sequential());
/// assert_eq!(comb.len(), 3);
/// # Ok::<(), parsim_netlist::NetlistError>(())
/// ```
#[derive(Debug, Clone)]
pub struct Condensation {
    /// The component of each gate.
    comp: Vec<usize>,
    /// Gates grouped by component: `members[first[c]..first[c + 1]]`.
    first: Vec<usize>,
    members: Vec<GateId>,
    /// `targets[start[c]..start[c + 1]]`: the distinct other components
    /// whose kept edges feed component `c`.
    start: Vec<usize>,
    targets: Vec<usize>,
}

impl Condensation {
    /// Condenses the edges `keep(driver, reader)` accepts, by an iterative
    /// Tarjan over fanin edges, so deep circuits cannot overflow the stack.
    pub fn of(circuit: &Circuit, keep: impl Fn(GateId, GateId) -> bool) -> Self {
        const UNSEEN: usize = usize::MAX;
        let n = circuit.len();
        let mut index = vec![UNSEEN; n];
        let mut low = vec![0; n];
        // A gate is on Tarjan's stack exactly while it has an index and no
        // component.
        let mut comp = vec![UNSEEN; n];
        let mut stack = Vec::new();
        // DFS frames: (gate, next fanin pin to follow).
        let mut frames: Vec<(GateId, usize)> = Vec::new();
        let mut members = Vec::with_capacity(n);
        let mut first = vec![0];
        let mut next = 0;
        for root in circuit.ids() {
            if index[root.index()] != UNSEEN {
                continue;
            }
            frames.push((root, 0));
            while let Some(frame) = frames.last_mut() {
                let (v, pin) = *frame;
                let vi = v.index();
                // A gate is numbered when its frame first reaches the top,
                // which is right after it is pushed.
                if index[vi] == UNSEEN {
                    index[vi] = next;
                    low[vi] = next;
                    next += 1;
                    stack.push(v);
                }
                if let Some(&w) = circuit.fanin(v).get(pin) {
                    frame.1 += 1;
                    if !keep(w, v) {
                        continue;
                    }
                    if index[w.index()] == UNSEEN {
                        frames.push((w, 0));
                    } else if comp[w.index()] == UNSEEN {
                        low[vi] = low[vi].min(index[w.index()]);
                    }
                    continue;
                }
                frames.pop();
                if let Some(&(u, _)) = frames.last() {
                    low[u.index()] = low[u.index()].min(low[vi]);
                }
                if low[vi] == index[vi] {
                    let c = first.len() - 1;
                    loop {
                        let w = stack.pop().expect("v is on the stack");
                        comp[w.index()] = c;
                        members.push(w);
                        if w == v {
                            break;
                        }
                    }
                    first.push(members.len());
                }
            }
        }

        let comps = first.len() - 1;
        let mut start = Vec::with_capacity(comps + 1);
        let mut targets = Vec::new();
        let mut listed = vec![UNSEEN; comps];
        start.push(0);
        for c in 0..comps {
            for &g in &members[first[c]..first[c + 1]] {
                for &f in circuit.fanin(g) {
                    let d = comp[f.index()];
                    if d != c && listed[d] != c && keep(f, g) {
                        listed[d] = c;
                        targets.push(d);
                    }
                }
            }
            start.push(targets.len());
        }
        Condensation { comp, first, members, start, targets }
    }

    /// Number of components.
    pub fn len(&self) -> usize {
        self.first.len() - 1
    }

    /// Returns `true` if there are no components (the circuit is empty).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The component holding `gate`.
    pub fn component(&self, gate: GateId) -> usize {
        self.comp[gate.index()]
    }

    /// The gates of component `c`, in the order Tarjan closed them.
    pub fn members(&self, c: usize) -> &[GateId] {
        &self.members[self.first[c]..self.first[c + 1]]
    }

    /// The components whose kept edges feed component `c`, each once.
    pub fn fanin(&self, c: usize) -> &[usize] {
        &self.targets[self.start[c]..self.start[c + 1]]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{bench, generate, DelayModel};

    #[test]
    fn kept_edges_run_from_lower_to_higher_components() {
        for c in [bench::s27ish(), generate::lfsr(12, DelayModel::Unit)] {
            let dag = Condensation::of(&c, |_, _| true);
            let total: usize = (0..dag.len()).map(|k| dag.members(k).len()).sum();
            assert_eq!(total, c.len());
            for id in c.ids() {
                for &f in c.fanin(id) {
                    assert!(dag.component(f) <= dag.component(id));
                }
            }
            for k in 0..dag.len() {
                assert!(dag.fanin(k).iter().all(|&d| d < k));
                assert!(dag.members(k).iter().all(|&g| dag.component(g) == k));
            }
        }
    }

    #[test]
    fn dropped_edges_split_components() {
        // The LFSR's one register loop is one component over every edge
        // and none over the combinational ones.
        let c = generate::lfsr(8, DelayModel::Unit);
        let all = Condensation::of(&c, |_, _| true);
        assert!((0..all.len()).any(|k| all.members(k).len() > 8));
        let comb = Condensation::of(&c, |_, to| is_combinational_sink(c.kind(to)));
        assert_eq!(comb.len(), c.len());
        assert!((0..comb.len()).all(|k| comb.fanin(k).iter().all(|&d| d < k)));
    }
}
