//! The partition data structure and its quality metrics.

use std::error::Error;
use std::fmt::{self, Display};

use parsim_netlist::{Circuit, GateId};

use crate::GateWeights;

/// Error produced when constructing an invalid [`Partition`].
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum PartitionError {
    /// `blocks` was zero.
    NoBlocks,
    /// A gate was assigned to a block index ≥ `blocks`.
    BlockOutOfRange {
        /// The offending gate index.
        gate: usize,
        /// The out-of-range block.
        block: usize,
    },
}

impl Display for PartitionError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PartitionError::NoBlocks => write!(f, "partition must have at least one block"),
            PartitionError::BlockOutOfRange { gate, block } => {
                write!(f, "gate {gate} assigned to out-of-range block {block}")
            }
        }
    }
}

impl Error for PartitionError {}

/// An assignment of every gate to one of `blocks` processor blocks.
///
/// This is the output of every [`Partitioner`](crate::Partitioner) and the
/// input to every parallel simulation kernel (the "partitioning and mapping"
/// performance factor of §II).
///
/// # Examples
///
/// ```
/// use parsim_netlist::bench;
/// use parsim_partition::{GateWeights, Partition};
///
/// let c = bench::c17();
/// let p = Partition::new(2, vec![0, 0, 0, 1, 1, 0, 0, 1, 1, 0, 1])?;
/// let q = p.quality(&c, &GateWeights::uniform(c.len()));
/// assert!(q.cut_edges > 0);
/// # Ok::<(), parsim_partition::PartitionError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Partition {
    blocks: usize,
    assignment: Vec<u32>,
}

impl Partition {
    /// Creates a partition from an explicit assignment vector.
    ///
    /// # Errors
    ///
    /// Returns [`PartitionError`] if `blocks` is zero or any entry is out of
    /// range.
    pub fn new(blocks: usize, assignment: Vec<usize>) -> Result<Self, PartitionError> {
        if blocks == 0 {
            return Err(PartitionError::NoBlocks);
        }
        for (gate, &block) in assignment.iter().enumerate() {
            if block >= blocks {
                return Err(PartitionError::BlockOutOfRange { gate, block });
            }
        }
        Ok(Partition { blocks, assignment: assignment.into_iter().map(|b| b as u32).collect() })
    }

    /// Places every gate in block 0 (the sequential baseline).
    ///
    /// Public API: the one-LP baseline a caller lints or runs against; the
    /// lint suites build their partition-quality contexts with it.
    pub fn single_block(n: usize) -> Self {
        Partition { blocks: 1, assignment: vec![0; n] }
    }

    /// Number of blocks (processors).
    pub fn blocks(&self) -> usize {
        self.blocks
    }

    /// Number of gates assigned.
    pub fn len(&self) -> usize {
        self.assignment.len()
    }

    /// Returns `true` if no gates are assigned.
    pub fn is_empty(&self) -> bool {
        self.assignment.is_empty()
    }

    /// The block a gate is assigned to.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn block_of(&self, id: GateId) -> usize {
        self.assignment[id.index()] as usize
    }

    /// The gates of each block, in id order.
    pub fn members(&self) -> Vec<Vec<GateId>> {
        let mut members = vec![Vec::new(); self.blocks];
        for (i, &b) in self.assignment.iter().enumerate() {
            members[b as usize].push(GateId::new(i));
        }
        members
    }

    /// Number of *cut edges*: fanout connections whose driver and sink live
    /// in different blocks. Each such connection becomes an inter-processor
    /// message at simulation time.
    pub fn cut_edges(&self, circuit: &Circuit) -> usize {
        assert_eq!(circuit.len(), self.assignment.len(), "partition does not match circuit");
        circuit
            .ids()
            .map(|id| {
                let b = self.block_of(id);
                circuit.fanout(id).iter().filter(|e| self.block_of(e.gate) != b).count()
            })
            .sum()
    }

    /// Number of *cut nets*: nets with at least one sink in a foreign block
    /// (the hyperedge cut that min-cut partitioners optimize).
    pub fn cut_nets(&self, circuit: &Circuit) -> usize {
        assert_eq!(circuit.len(), self.assignment.len(), "partition does not match circuit");
        circuit
            .ids()
            .filter(|&id| {
                let b = self.block_of(id);
                circuit.fanout(id).iter().any(|e| self.block_of(e.gate) != b)
            })
            .count()
    }

    /// The total gate weight per block.
    pub fn loads(&self, weights: &GateWeights) -> Vec<f64> {
        assert_eq!(weights.len(), self.assignment.len(), "weights do not match partition");
        let mut loads = vec![0.0; self.blocks];
        for (id, w) in weights.iter() {
            loads[self.block_of(id)] += w;
        }
        loads
    }

    /// Full quality metrics for experiment tables.
    pub fn quality(&self, circuit: &Circuit, weights: &GateWeights) -> PartitionQuality {
        let loads = self.loads(weights);
        let total: f64 = loads.iter().sum();
        let mean = total / self.blocks as f64;
        let max = loads.iter().copied().fold(0.0f64, f64::max);
        let total_edges: usize = circuit.ids().map(|id| circuit.fanout(id).len()).sum();
        let cut_edges = self.cut_edges(circuit);
        PartitionQuality {
            blocks: self.blocks,
            cut_edges,
            cut_nets: self.cut_nets(circuit),
            cut_fraction: if total_edges == 0 {
                0.0
            } else {
                cut_edges as f64 / total_edges as f64
            },
            max_load_ratio: if mean == 0.0 { 1.0 } else { max / mean },
        }
    }
}

/// Quality metrics of a partition: the two §III objectives plus context.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PartitionQuality {
    /// Number of blocks.
    pub blocks: usize,
    /// Cross-block fanout connections (messages per full activity wave).
    pub cut_edges: usize,
    /// Nets spanning more than one block.
    pub cut_nets: usize,
    /// `cut_edges` over all fanout connections.
    pub cut_fraction: f64,
    /// Heaviest block load over mean block load (1.0 = perfectly balanced).
    pub max_load_ratio: f64,
}

impl Display for PartitionQuality {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} blocks: cut {} edges ({:.1}%), {} nets, balance {:.3}",
            self.blocks,
            self.cut_edges,
            self.cut_fraction * 100.0,
            self.cut_nets,
            self.max_load_ratio
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use parsim_netlist::bench;

    #[test]
    fn validation() {
        assert_eq!(Partition::new(0, vec![]).unwrap_err(), PartitionError::NoBlocks);
        assert!(matches!(
            Partition::new(2, vec![0, 2]).unwrap_err(),
            PartitionError::BlockOutOfRange { gate: 1, block: 2 }
        ));
        assert!(Partition::new(2, vec![0, 1, 1]).is_ok());
    }

    #[test]
    fn single_block_has_no_cut() {
        let c = bench::c17();
        let p = Partition::single_block(c.len());
        assert_eq!(p.cut_edges(&c), 0);
        assert_eq!(p.cut_nets(&c), 0);
        let q = p.quality(&c, &GateWeights::uniform(c.len()));
        assert_eq!(q.max_load_ratio, 1.0);
        assert_eq!(q.cut_fraction, 0.0);
    }

    #[test]
    fn cut_metrics_count_crossings() {
        let c = bench::c17(); // 11 gates
                              // Alternate blocks by id: nearly every edge is cut.
        let p = Partition::new(2, (0..11).map(|i| i % 2).collect()).unwrap();
        assert!(p.cut_edges(&c) > 0);
        assert!(p.cut_nets(&c) <= p.cut_edges(&c));
        let members = p.members();
        assert_eq!(members[0].len() + members[1].len(), 11);
    }

    #[test]
    fn loads_follow_weights() {
        let p = Partition::new(2, vec![0, 0, 1]).unwrap();
        let w = GateWeights::from_values(vec![1.0, 2.0, 10.0]);
        assert_eq!(p.loads(&w), vec![3.0, 10.0]);
    }
}
