//! Baseline partitioners: random, round-robin, contiguous and levelized.

use parsim_netlist::{Circuit, Levelization};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::{least_loaded, GateWeights, Partition, Partitioner};

fn check_args(circuit: &Circuit, blocks: usize, weights: &GateWeights) {
    assert!(blocks > 0, "partitioner needs at least one block");
    assert_eq!(weights.len(), circuit.len(), "weights must cover every gate");
}

/// Assigns each gate to a uniformly random block.
///
/// The classic do-nothing baseline: expected perfect load balance, worst-case
/// cut (≈ `(P−1)/P` of all edges).
#[derive(Debug, Clone, Copy)]
pub struct RandomPartitioner {
    seed: u64,
}

impl RandomPartitioner {
    /// Creates the partitioner with a seed for reproducibility.
    pub fn new(seed: u64) -> Self {
        RandomPartitioner { seed }
    }
}

impl Partitioner for RandomPartitioner {
    fn name(&self) -> &'static str {
        "random"
    }

    fn partition(&self, circuit: &Circuit, blocks: usize, weights: &GateWeights) -> Partition {
        check_args(circuit, blocks, weights);
        let mut rng = StdRng::seed_from_u64(self.seed);
        let assignment = (0..circuit.len()).map(|_| rng.random_range(0..blocks)).collect();
        Partition::new(blocks, assignment).expect("random assignment is in range")
    }
}

/// Assigns gate `i` to block `i mod P`.
///
/// Scatters adjacent ids across processors: balanced, cache-hostile, cut
/// comparable to random.
#[derive(Debug, Clone, Copy, Default)]
pub struct RoundRobinPartitioner;

impl Partitioner for RoundRobinPartitioner {
    fn name(&self) -> &'static str {
        "round-robin"
    }

    fn partition(&self, circuit: &Circuit, blocks: usize, weights: &GateWeights) -> Partition {
        check_args(circuit, blocks, weights);
        let assignment = (0..circuit.len()).map(|i| i % blocks).collect();
        Partition::new(blocks, assignment).expect("round-robin assignment is in range")
    }
}

/// Splits the id range into `P` contiguous, weight-balanced chunks.
///
/// Because generators and synthesis emit topologically adjacent gates with
/// nearby ids, contiguity is a cheap locality proxy — the "strings without
/// following wires" baseline.
#[derive(Debug, Clone, Copy, Default)]
pub struct ContiguousPartitioner;

impl Partitioner for ContiguousPartitioner {
    fn name(&self) -> &'static str {
        "contiguous"
    }

    fn partition(&self, circuit: &Circuit, blocks: usize, weights: &GateWeights) -> Partition {
        check_args(circuit, blocks, weights);
        let total = weights.total();
        let per_block = total / blocks as f64;
        let mut assignment = Vec::with_capacity(circuit.len());
        let mut block = 0usize;
        let mut acc = 0.0;
        for (_, w) in weights.iter() {
            if acc >= per_block && block + 1 < blocks {
                block += 1;
                acc = 0.0;
            }
            assignment.push(block);
            acc += w;
        }
        Partition::new(blocks, assignment).expect("contiguous assignment is in range")
    }
}

/// Distributes the gates of each topological level across blocks in
/// least-loaded order.
///
/// Gates at the same level can evaluate concurrently, so spreading each
/// level maximizes per-step parallelism for the synchronous kernel — at the
/// price of cutting most level-to-level edges.
#[derive(Debug, Clone, Copy, Default)]
pub struct LevelPartitioner;

impl Partitioner for LevelPartitioner {
    fn name(&self) -> &'static str {
        "levelized"
    }

    fn partition(&self, circuit: &Circuit, blocks: usize, weights: &GateWeights) -> Partition {
        check_args(circuit, blocks, weights);
        let lv = Levelization::of(circuit);
        let mut loads = vec![0.0f64; blocks];
        let mut assignment = vec![0usize; circuit.len()];
        for level in lv.by_level() {
            for id in level {
                let best = least_loaded(&loads);
                assignment[id.index()] = best;
                loads[best] += weights.weight(id);
            }
        }
        Partition::new(blocks, assignment).expect("levelized assignment is in range")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use parsim_netlist::generate::{random_dag, RandomDagConfig};

    fn dag(n: usize) -> Circuit {
        random_dag(&RandomDagConfig { gates: n, ..Default::default() })
    }

    #[test]
    fn all_simple_partitioners_cover_all_gates() {
        let c = dag(200);
        let w = GateWeights::uniform(c.len());
        let ps: Vec<Box<dyn Partitioner>> = vec![
            Box::new(RandomPartitioner::new(1)),
            Box::new(RoundRobinPartitioner),
            Box::new(ContiguousPartitioner),
            Box::new(LevelPartitioner),
        ];
        for p in ps {
            let part = p.partition(&c, 4, &w);
            assert_eq!(part.len(), c.len(), "{}", p.name());
            assert_eq!(part.blocks(), 4);
            let loads = part.loads(&w);
            assert!(loads.iter().all(|&l| l > 0.0), "{} left a block empty", p.name());
        }
    }

    #[test]
    fn round_robin_is_perfectly_balanced() {
        let c = dag(400);
        let w = GateWeights::uniform(c.len());
        let p = RoundRobinPartitioner.partition(&c, 8, &w);
        let q = p.quality(&c, &w);
        assert!(q.max_load_ratio < 1.05);
    }

    #[test]
    fn contiguous_cuts_less_than_random() {
        let c = dag(1000);
        let w = GateWeights::uniform(c.len());
        let contiguous = ContiguousPartitioner.partition(&c, 8, &w).cut_edges(&c);
        let random = RandomPartitioner::new(7).partition(&c, 8, &w).cut_edges(&c);
        assert!(contiguous < random, "locality should beat random: {contiguous} vs {random}");
    }

    #[test]
    fn contiguous_respects_weights() {
        let c = dag(100);
        // Put all weight on the first 10 gates; they should get a block
        // roughly to themselves.
        let mut v = vec![1.0; c.len()];
        for w in v.iter_mut().take(10) {
            *w = 1000.0;
        }
        let w = GateWeights::from_values(v);
        let p = ContiguousPartitioner.partition(&c, 4, &w);
        let q = p.quality(&c, &w);
        assert!(q.max_load_ratio < 2.0, "weighted balance failed: {q}");
    }

    #[test]
    fn single_block_degenerates_gracefully() {
        let c = dag(50);
        let w = GateWeights::uniform(c.len());
        for p in crate::all_partitioners(3) {
            let part = p.partition(&c, 1, &w);
            assert_eq!(part.cut_edges(&c), 0, "{}", p.name());
        }
    }

    #[test]
    fn more_blocks_than_gates() {
        let c = parsim_netlist::bench::c17();
        let w = GateWeights::uniform(c.len());
        for p in crate::all_partitioners(3) {
            let part = p.partition(&c, 64, &w);
            assert_eq!(part.blocks(), 64, "{}", p.name());
            assert_eq!(part.len(), c.len(), "{}", p.name());
        }
    }
}
