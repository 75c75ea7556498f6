//! Fanin-cone partitioning.

use parsim_netlist::{Circuit, Condensation, GateId};

use crate::{least_loaded, GateWeights, Partition, Partitioner};

/// Fanin-cone partitioning (Smith, Underwood and Mercer).
///
/// "Analogous to the depth first search implicit in string partitioning,
/// fanin and fanout cones ... spread out from an initial gate in a breadth
/// first manner" (§III). For each primary output, the transitive fanin cone
/// of still-unassigned gates is collected breadth-first and placed on the
/// least-loaded block. Cones capture *convergence* locality: all the logic
/// that feeds one output evaluates on one processor.
///
/// Outputs are visited in increasing cone-size order so small cones don't
/// get swallowed by a giant first cone; gates shared between cones go to
/// whichever cone claims them first.
///
/// The full cone sizes that fix this order come from one pass over the
/// whole circuit, not one walk per output. Cones cross flip-flops, so the
/// fanin graph is first condensed to its strongly connected components
/// ([`Condensation`] over every fanin edge). One bit per output, 64
/// outputs to a word and up to 16 words at a time, then flows from the
/// outputs toward the inputs through the condensed DAG; a cone's size is
/// the sum of the member counts of the components its bit reaches,
/// accumulated for 64 outputs at once in bit-sliced counters. The pass costs
/// O((gates + edges) · ⌈outputs / 64⌉) word operations and
/// O(components × 16) words of memory.
#[derive(Debug, Clone, Copy, Default)]
pub struct ConePartitioner;

impl Partitioner for ConePartitioner {
    fn name(&self) -> &'static str {
        "cones"
    }

    fn partition(&self, circuit: &Circuit, blocks: usize, weights: &GateWeights) -> Partition {
        assert!(blocks > 0, "partitioner needs at least one block");
        assert_eq!(weights.len(), circuit.len(), "weights must cover every gate");

        let n = circuit.len();
        let mut assignment: Vec<Option<usize>> = vec![None; n];
        let mut loads = vec![0.0f64; blocks];
        let mut queue = Vec::with_capacity(n);

        // Collects the still-unassigned fanin cone of `root` breadth-first
        // onto the least-loaded block. The block is chosen before the walk,
        // so the assignment itself marks the gates already queued.
        let mut claim = |root: GateId| {
            if assignment[root.index()].is_some() {
                return;
            }
            let best = least_loaded(&loads);
            assignment[root.index()] = Some(best);
            queue.clear();
            queue.push(root);
            let mut head = 0;
            while let Some(&id) = queue.get(head) {
                head += 1;
                loads[best] += weights.weight(id);
                for &f in circuit.fanin(id) {
                    if assignment[f.index()].is_none() {
                        assignment[f.index()] = Some(best);
                        queue.push(f);
                    }
                }
            }
        };

        // Order outputs by (full) cone size, smallest first.
        let mut roots: Vec<(usize, GateId)> =
            cone_sizes(circuit).into_iter().zip(circuit.outputs().iter().copied()).collect();
        roots.sort_by_key(|&(size, id)| (size, id));
        for (_, po) in roots {
            claim(po);
        }
        // Gates feeding no primary output (e.g. dangling or feedback-only
        // logic): place their own cones.
        for id in (0..n).rev().map(GateId::new) {
            claim(id);
        }

        let assignment = assignment.into_iter().map(|a| a.expect("every gate coned")).collect();
        Partition::new(blocks, assignment).expect("cone assignment is in range")
    }
}

/// Words of output bits carried through the condensed DAG at once.
const BATCH_WORDS: usize = 16;

/// The full fanin-cone size of every primary output, in declaration order.
fn cone_sizes(circuit: &Circuit) -> Vec<usize> {
    let dag = Condensation::of(circuit, |_, _| true);
    let comps = dag.len();
    // No cone exceeds the whole circuit, so this many bits hold any size.
    let planes = (usize::BITS - circuit.len().leading_zeros()) as usize;
    let mut sizes = Vec::with_capacity(circuit.outputs().len());
    let mut reach = Vec::new();
    let mut counters = Vec::new();
    for batch in circuit.outputs().chunks(64 * BATCH_WORDS) {
        let words = batch.len().div_ceil(64);
        reach.clear();
        reach.resize(comps * words, 0u64);
        counters.clear();
        counters.resize(words * planes, 0u64);
        for (j, po) in batch.iter().enumerate() {
            reach[dag.component(*po) * words + j / 64] |= 1 << (j % 64);
        }
        // Highest component first: every predecessor of a component has
        // handed on its bits before the component is read.
        for c in (0..comps).rev() {
            let mut bits = [0u64; BATCH_WORDS];
            bits[..words].copy_from_slice(&reach[c * words..(c + 1) * words]);
            if bits == [0; BATCH_WORDS] {
                continue;
            }
            for &d in dag.fanin(c) {
                for (r, &b) in reach[d * words..(d + 1) * words].iter_mut().zip(&bits) {
                    *r |= b;
                }
            }
            for (word, &b) in counters.chunks_exact_mut(planes).zip(&bits) {
                add_sliced(word, b, dag.members(c).len());
            }
        }
        for j in 0..batch.len() {
            let word = &counters[j / 64 * planes..(j / 64 + 1) * planes];
            let size: u64 =
                word.iter().enumerate().map(|(p, &plane)| ((plane >> (j % 64)) & 1) << p).sum();
            sizes.push(size as usize);
        }
    }
    sizes
}

/// Adds `amount` to each of the 64 bit-sliced counters that `mask`
/// selects: bit `j` of `planes[p]` is bit `p` of counter `j`. Each set bit
/// of `amount` is one ripple-carry pass through the planes above it,
/// without a data-dependent branch.
fn add_sliced(planes: &mut [u64], mask: u64, mut amount: usize) {
    while amount != 0 {
        let mut carry = mask;
        for plane in &mut planes[amount.trailing_zeros() as usize..] {
            let next = *plane & carry;
            *plane ^= carry;
            carry = next;
        }
        debug_assert_eq!(carry, 0, "a cone outgrew the circuit");
        amount &= amount - 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use parsim_logic::GateKind;
    use parsim_netlist::generate::{self, random_dag, RandomDagConfig};
    use parsim_netlist::DelayModel;

    /// Size of the full fanin cone of `root`, by a plain breadth-first walk.
    fn bfs_cone_size(c: &Circuit, root: GateId) -> usize {
        let mut seen = vec![false; c.len()];
        let mut frontier = vec![root];
        seen[root.index()] = true;
        let mut size = 0;
        while let Some(id) = frontier.pop() {
            size += 1;
            for &f in c.fanin(id) {
                if !std::mem::replace(&mut seen[f.index()], true) {
                    frontier.push(f);
                }
            }
        }
        size
    }

    #[test]
    fn sizes_match_bfs_across_batches() {
        // The decoder's 2 048 outputs fill two batches of 16 words. The
        // counter's two-gate register loops and the LFSR's and ring's
        // whole-register loops are components of more than one gate, and
        // the LFSR's outputs all sit on its one loop.
        let d = DelayModel::Unit;
        for c in [
            generate::decoder(11, d),
            generate::counter(70, d),
            generate::lfsr(16, d),
            generate::ring(9, d),
        ] {
            let sizes = cone_sizes(&c);
            assert_eq!(sizes.len(), c.outputs().len());
            for (j, (&po, &size)) in c.outputs().iter().zip(&sizes).enumerate().step_by(7) {
                assert_eq!(size, bfs_cone_size(&c, po), "{} output {j}", c.name());
            }
        }
    }

    #[test]
    fn covers_every_gate() {
        let c =
            random_dag(&RandomDagConfig { gates: 300, seq_fraction: 0.1, ..Default::default() });
        let w = GateWeights::uniform(c.len());
        let p = ConePartitioner.partition(&c, 6, &w);
        assert_eq!(p.len(), c.len());
    }

    #[test]
    fn disjoint_trees_have_zero_cut() {
        // Two independent reduction trees merged into one circuit should be
        // split with no cut at all when P = number of trees... we emulate by
        // a single tree at P=1 vs P=2: a tree has one output, so the whole
        // tree is one cone and lands on one block.
        let c = generate::tree(GateKind::Nand, 32, DelayModel::Unit);
        let w = GateWeights::uniform(c.len());
        let p = ConePartitioner.partition(&c, 4, &w);
        assert_eq!(p.cut_edges(&c), 0, "a single cone must never be split");
    }

    #[test]
    fn adder_cones_follow_outputs() {
        // Each sum bit of a ripple adder has its own cone; low-order cones
        // are small, so cones should beat round-robin on cut.
        let c = generate::ripple_adder(32, DelayModel::Unit);
        let w = GateWeights::uniform(c.len());
        let cones = ConePartitioner.partition(&c, 4, &w).cut_edges(&c);
        let rr = crate::RoundRobinPartitioner.partition(&c, 4, &w).cut_edges(&c);
        assert!(cones < rr, "cones {cones} should beat round-robin {rr}");
    }
}
