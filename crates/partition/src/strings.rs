//! Levendel-style string partitioning.

use parsim_netlist::{Circuit, GateId};

use crate::{least_loaded, GateWeights, Partition, Partitioner};

/// The *strings* algorithm of Levendel, Menon and Patel.
///
/// "Starting at a primary input component, the component output is followed
/// to a fanout component, the fanout component's output is followed to one of
/// its fanout components, etc. until a primary output is reached. The string
/// of components formed above is assigned to a processor, and the process
/// repeats" (§III). Strings capture pipeline locality: an event propagating
/// down a string stays on one processor.
///
/// This implementation always extends a string into the first *unassigned*
/// fanout and assigns each completed string to the currently least-loaded
/// block; leftover gates unreachable from any input are swept up the same
/// way.
#[derive(Debug, Clone, Copy, Default)]
pub struct StringPartitioner;

impl Partitioner for StringPartitioner {
    fn name(&self) -> &'static str {
        "strings"
    }

    fn partition(&self, circuit: &Circuit, blocks: usize, weights: &GateWeights) -> Partition {
        assert!(blocks > 0, "partitioner needs at least one block");
        assert_eq!(weights.len(), circuit.len(), "weights must cover every gate");

        let n = circuit.len();
        let mut assignment: Vec<Option<usize>> = vec![None; n];
        let mut loads = vec![0.0f64; blocks];

        // Trace a string from each seed: follow the first unassigned fanout
        // until none remains. The block is chosen before the walk, so the
        // assignment itself marks the gates already on the string.
        let mut trace = |seed: GateId| {
            if assignment[seed.index()].is_some() {
                return;
            }
            let best = least_loaded(&loads);
            let mut cur = seed;
            loop {
                assignment[cur.index()] = Some(best);
                loads[best] += weights.weight(cur);
                let next = circuit
                    .fanout(cur)
                    .iter()
                    .map(|e| e.gate)
                    .find(|g| assignment[g.index()].is_none());
                match next {
                    Some(g) => cur = g,
                    None => break,
                }
            }
        };

        for &pi in circuit.inputs() {
            trace(pi);
        }
        // Repeat from any still-unassigned gate (constants, feedback-only
        // logic, gates on strings that dead-ended early).
        for id in circuit.ids() {
            trace(id);
        }

        let assignment = assignment.into_iter().map(|a| a.expect("every gate traced")).collect();
        Partition::new(blocks, assignment).expect("string assignment is in range")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use parsim_netlist::generate::{self, random_dag, RandomDagConfig};
    use parsim_netlist::DelayModel;

    #[test]
    fn covers_every_gate() {
        let c =
            random_dag(&RandomDagConfig { gates: 300, seq_fraction: 0.2, ..Default::default() });
        let w = GateWeights::uniform(c.len());
        let p = StringPartitioner.partition(&c, 5, &w);
        assert_eq!(p.len(), c.len());
        assert!(p.loads(&w).iter().all(|&l| l > 0.0));
    }

    #[test]
    fn chain_circuit_forms_single_string() {
        // A pure pipeline must land entirely on one block: zero cut.
        let c = generate::shift_register(20, DelayModel::Unit);
        let w = GateWeights::uniform(c.len());
        let p = StringPartitioner.partition(&c, 4, &w);
        // The shift register body (q0 -> q1 -> ... -> q19) is one string.
        // (The clock input's string claims it first, entering at q0.)
        let q0 = c.find("q0").unwrap();
        let block = p.block_of(q0);
        let mut cur = q0;
        while let Some(e) = c.fanout(cur).first() {
            assert_eq!(p.block_of(e.gate), block, "string was split at {}", e.gate);
            cur = e.gate;
        }
    }

    #[test]
    fn strings_cut_less_than_round_robin() {
        let c = random_dag(&RandomDagConfig { gates: 800, ..Default::default() });
        let w = GateWeights::uniform(c.len());
        let strings = StringPartitioner.partition(&c, 8, &w).cut_edges(&c);
        let rr = crate::RoundRobinPartitioner.partition(&c, 8, &w).cut_edges(&c);
        assert!(strings < rr, "strings {strings} should beat round-robin {rr}");
    }
}
