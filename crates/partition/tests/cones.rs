//! Oracle tests for the one-sweep cone partitioner and the string
//! partitioner: each must reproduce, bit for bit, the partition of the
//! straightforward algorithm it replaced, kept here verbatim as the
//! reference.

use std::collections::VecDeque;

use parsim_logic::GateKind;
use parsim_netlist::generate::{self, random_dag, RandomDagConfig};
use parsim_netlist::{Circuit, CircuitBuilder, DelayModel, GateId};
use parsim_partition::{ConePartitioner, GateWeights, Partition, Partitioner, StringPartitioner};
use proptest::prelude::*;

/// Cone partitioning sized by one breadth-first walk per output, each with
/// its own `seen` vector.
struct BfsCones;

impl BfsCones {
    /// Collects the still-unassigned fanin cone of `root`, breadth-first.
    fn cone(circuit: &Circuit, root: GateId, assignment: &[Option<usize>]) -> Vec<GateId> {
        let mut seen = vec![false; circuit.len()];
        let mut cone = Vec::new();
        let mut frontier = VecDeque::new();
        if assignment[root.index()].is_none() {
            frontier.push_back(root);
            seen[root.index()] = true;
        }
        while let Some(id) = frontier.pop_front() {
            cone.push(id);
            for &f in circuit.fanin(id) {
                if !seen[f.index()] && assignment[f.index()].is_none() {
                    seen[f.index()] = true;
                    frontier.push_back(f);
                }
            }
        }
        cone
    }
}

impl Partitioner for BfsCones {
    fn name(&self) -> &'static str {
        "cones (per-output BFS)"
    }

    fn partition(&self, circuit: &Circuit, blocks: usize, weights: &GateWeights) -> Partition {
        assert!(blocks > 0, "partitioner needs at least one block");
        assert_eq!(weights.len(), circuit.len(), "weights must cover every gate");

        let n = circuit.len();
        let mut assignment: Vec<Option<usize>> = vec![None; n];
        let mut loads = vec![0.0f64; blocks];

        // Order outputs by (full) cone size, smallest first.
        let empty = vec![None; n];
        let mut roots: Vec<(usize, GateId)> = circuit
            .outputs()
            .iter()
            .map(|&po| (Self::cone(circuit, po, &empty).len(), po))
            .collect();
        roots.sort_by_key(|&(size, id)| (size, id));

        let place =
            |cone: Vec<GateId>, assignment: &mut Vec<Option<usize>>, loads: &mut Vec<f64>| {
                if cone.is_empty() {
                    return;
                }
                let (best, _) = loads
                    .iter()
                    .enumerate()
                    .min_by(|a, b| a.1.partial_cmp(b.1).expect("loads are finite"))
                    .expect("at least one block");
                for &id in &cone {
                    assignment[id.index()] = Some(best);
                    loads[best] += weights.weight(id);
                }
            };

        for (_, po) in roots {
            let cone = Self::cone(circuit, po, &assignment);
            place(cone, &mut assignment, &mut loads);
        }
        // Gates feeding no primary output (e.g. dangling or feedback-only
        // logic): place their own cones.
        for id in (0..n).rev().map(GateId::new) {
            if assignment[id.index()].is_none() {
                let cone = Self::cone(circuit, id, &assignment);
                place(cone, &mut assignment, &mut loads);
            }
        }

        let assignment = assignment.into_iter().map(|a| a.expect("every gate coned")).collect();
        Partition::new(blocks, assignment).expect("cone assignment is in range")
    }
}

/// String partitioning that tests string membership with a linear scan.
struct ScanStrings;

impl Partitioner for ScanStrings {
    fn name(&self) -> &'static str {
        "strings (membership scan)"
    }

    fn partition(&self, circuit: &Circuit, blocks: usize, weights: &GateWeights) -> Partition {
        assert!(blocks > 0, "partitioner needs at least one block");
        assert_eq!(weights.len(), circuit.len(), "weights must cover every gate");

        let n = circuit.len();
        let mut assignment: Vec<Option<usize>> = vec![None; n];
        let mut loads = vec![0.0f64; blocks];

        let assign_string =
            |string: &[GateId], assignment: &mut Vec<Option<usize>>, loads: &mut Vec<f64>| {
                if string.is_empty() {
                    return;
                }
                let (best, _) = loads
                    .iter()
                    .enumerate()
                    .min_by(|a, b| a.1.partial_cmp(b.1).expect("loads are finite"))
                    .expect("at least one block");
                for &id in string {
                    assignment[id.index()] = Some(best);
                    loads[best] += weights.weight(id);
                }
            };

        // Trace a string from each seed: follow the first unassigned fanout
        // until none remains.
        let trace = |seed: GateId, assignment: &mut Vec<Option<usize>>, loads: &mut Vec<f64>| {
            if assignment[seed.index()].is_some() {
                return;
            }
            let mut string = vec![seed];
            let mut cur = seed;
            loop {
                let next = circuit
                    .fanout(cur)
                    .iter()
                    .map(|e| e.gate)
                    .find(|g| assignment[g.index()].is_none() && !string.contains(g));
                match next {
                    Some(g) => {
                        string.push(g);
                        cur = g;
                    }
                    None => break,
                }
            }
            assign_string(&string, assignment, loads);
        };

        for &pi in circuit.inputs() {
            trace(pi, &mut assignment, &mut loads);
        }
        // Repeat from any still-unassigned gate (constants, feedback-only
        // logic, gates on strings that dead-ended early).
        for id in circuit.ids() {
            trace(id, &mut assignment, &mut loads);
        }

        let assignment = assignment.into_iter().map(|a| a.expect("every gate traced")).collect();
        Partition::new(blocks, assignment).expect("string assignment is in range")
    }
}

/// Uniform weights, or evaluation-count weights drawn from `seed`: a
/// skewed profile in which loads tie rarely and round in the last bit.
fn weights(circuit: &Circuit, counted: bool, seed: u64) -> GateWeights {
    if !counted {
        return GateWeights::uniform(circuit.len());
    }
    let mut x = seed | 1;
    let counts = (0..circuit.len())
        .map(|_| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x % 97
        })
        .collect();
    GateWeights::from_counts(counts)
}

/// The one-sweep partition equals the per-output-BFS partition.
fn assert_cones_match(circuit: &Circuit, blocks: usize, weights: &GateWeights) {
    assert_eq!(
        ConePartitioner.partition(circuit, blocks, weights),
        BfsCones.partition(circuit, blocks, weights),
        "{} at P = {blocks}",
        circuit.name(),
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Random DAGs, combinational through 30 % flip-flops, at every P from
    /// 1 to 8, uniform and counted weights.
    #[test]
    fn cones_match_bfs_on_random_dags(
        gates in 20usize..1500,
        seq in 0.0f64..0.3,
        blocks in 1usize..9,
        counted in any::<bool>(),
        seed in any::<u64>(),
    ) {
        let c = random_dag(&RandomDagConfig { gates, seq_fraction: seq, seed, ..Default::default() });
        let w = weights(&c, counted, seed);
        prop_assert_eq!(
            ConePartitioner.partition(&c, blocks, &w),
            BfsCones.partition(&c, blocks, &w),
            "{} gates, seq {}, P = {}",
            gates,
            seq,
            blocks
        );
    }

    /// The string partitioner reproduces the membership-scan partition
    /// and repeats itself call to call.
    #[test]
    fn strings_match_scan_and_repeat(
        gates in 20usize..1500,
        seq in 0.0f64..0.3,
        blocks in 1usize..9,
        counted in any::<bool>(),
        seed in any::<u64>(),
    ) {
        let c = random_dag(&RandomDagConfig { gates, seq_fraction: seq, seed, ..Default::default() });
        let w = weights(&c, counted, seed);
        let p = StringPartitioner.partition(&c, blocks, &w);
        prop_assert_eq!(&p, &ScanStrings.partition(&c, blocks, &w));
        prop_assert_eq!(&p, &StringPartitioner.partition(&c, blocks, &w));
    }
}

/// Register loops of many gates (the LFSR and ring shift through every
/// stage; the counter's toggles feed back through XOR and AND), and the
/// acyclic tree, mesh and tri-state bus.
#[test]
fn cones_match_bfs_on_generators() {
    let d = DelayModel::Unit;
    let circuits = [
        generate::lfsr(16, d),
        generate::lfsr(61, d),
        generate::counter(12, d),
        generate::ring(2, d),
        generate::ring(40, d),
        generate::tree(GateKind::Nand, 64, d),
        generate::tree(GateKind::Xor, 37, d),
        generate::mesh(12, 9, d),
        generate::tristate_bus(8, d),
        generate::shift_register(30, d),
        generate::ripple_adder(24, d),
    ];
    for c in &circuits {
        for blocks in 1..9 {
            for counted in [false, true] {
                assert_cones_match(c, blocks, &weights(c, counted, blocks as u64));
            }
        }
    }
}

/// More outputs than one batch of 16 words carries: 2 048 decoder outputs
/// and a wide random DAG, whose sizes come from two or more batches.
#[test]
fn cones_match_bfs_beyond_one_batch() {
    let c = generate::decoder(11, DelayModel::Unit);
    assert!(c.outputs().len() > 1024);
    for blocks in [1, 3, 8] {
        assert_cones_match(&c, blocks, &weights(&c, blocks == 3, 11));
    }

    let c = random_dag(&RandomDagConfig {
        gates: 6000,
        locality: 0.0,
        max_fanin: 2,
        seq_fraction: 0.05,
        seed: 29,
        ..Default::default()
    });
    assert!(c.outputs().len() > 1024, "{} outputs", c.outputs().len());
    for blocks in [2, 7] {
        assert_cones_match(&c, blocks, &GateWeights::uniform(c.len()));
    }
}

/// Logic that feeds no output: a dangling combinational chain and a
/// two-flip-flop loop are left to the trailing sweep, and a gate listed
/// twice as an output is sized twice.
#[test]
fn cones_match_bfs_with_dangling_logic() {
    let d = DelayModel::Unit;
    let mut b = CircuitBuilder::new("dangling");
    let clk = b.input("clk");
    let a = b.input("a");
    let x = b.input("x");
    let y = b.gate(GateKind::And, [a, x], d.delay_for(GateKind::And, 0));
    let z = b.gate(GateKind::Or, [y, x], d.delay_for(GateKind::Or, 0));
    b.output("z", z);
    b.output("z_again", z);
    b.output("y", y);
    // Dangling chain off the inputs.
    let n1 = b.gate(GateKind::Xor, [a, x], d.delay_for(GateKind::Xor, 0));
    let n2 = b.gate(GateKind::Not, [n1], d.delay_for(GateKind::Not, 0));
    b.gate(GateKind::Nand, [n2, y], d.delay_for(GateKind::Nand, 0));
    // A feedback-only register loop.
    let q0 = b.declare("q0");
    let q1 = b.declare("q1");
    let t = b.gate(GateKind::Xor, [q1, a], d.delay_for(GateKind::Xor, 0));
    b.define(q0, GateKind::Dff, [clk, t], d.delay_for(GateKind::Dff, 0));
    b.define(q1, GateKind::Dff, [clk, q0], d.delay_for(GateKind::Dff, 0));
    let c = b.finish().expect("dangling circuit is structurally valid");

    for blocks in 1..9 {
        for counted in [false, true] {
            assert_cones_match(&c, blocks, &weights(&c, counted, 3));
        }
    }
}
