//! Circuit partitioning for parallel logic simulation.
//!
//! "When assigning LPs to processors for execution, two competing
//! requirements need to be balanced, a uniform computational load across the
//! processors and a minimum of communications volume between processors"
//! (Chamberlain, DAC '95 §III). This crate implements the partitioning
//! algorithms the paper surveys, behind one [`Partitioner`] trait:
//!
//! | Algorithm | Paper reference | Type |
//! |---|---|---|
//! | [`RandomPartitioner`] | baseline | scatter |
//! | [`RoundRobinPartitioner`] | baseline | scatter |
//! | [`ContiguousPartitioner`] | baseline | locality |
//! | [`StringPartitioner`] | Levendel et al., "strings" | depth-first paths |
//! | [`ConePartitioner`] | Smith et al., fanin cones | breadth-first cones |
//! | [`LevelPartitioner`] | levelized scatter | concurrency-preserving |
//! | [`KernighanLin`] | Kernighan & Lin bisection | iterative improvement |
//! | [`FiducciaMattheyses`] | Fiduccia & Mattheyses min-cut | iterative improvement |
//! | [`MultilevelPartitioner`] | multilevel coarsen/refine (the KL/FM successor) | iterative improvement |
//! | [`AnnealingPartitioner`] | simulated annealing | stochastic |
//!
//! Every algorithm accepts per-gate [`GateWeights`] so that evaluation
//! frequencies measured by *pre-simulation* (§III: "the simulation is run
//! for a period of time and the evaluation frequency of each gate is
//! measured") drive load balancing; [`GateWeights::uniform`] reproduces the
//! structural (unweighted) variants.
//!
//! # Examples
//!
//! ```
//! use parsim_netlist::generate::{random_dag, RandomDagConfig};
//! use parsim_partition::{FiducciaMattheyses, GateWeights, Partitioner};
//!
//! let c = random_dag(&RandomDagConfig { gates: 400, ..Default::default() });
//! let w = GateWeights::uniform(c.len());
//! let p = FiducciaMattheyses::default().partition(&c, 4, &w);
//! let q = p.quality(&c, &w);
//! assert_eq!(p.blocks(), 4);
//! assert!(q.max_load_ratio < 1.5); // reasonably balanced
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod anneal;
mod bisect;
mod cones;
mod fm;
mod kl;
mod multilevel;
mod partition;
mod simple;
mod strings;
mod weights;

pub use anneal::AnnealingPartitioner;
pub use cones::ConePartitioner;
pub use fm::FiducciaMattheyses;
pub use kl::KernighanLin;
pub use multilevel::MultilevelPartitioner;
pub use partition::{Partition, PartitionError, PartitionQuality};
pub use simple::{
    ContiguousPartitioner, LevelPartitioner, RandomPartitioner, RoundRobinPartitioner,
};
pub use strings::StringPartitioner;
pub use weights::GateWeights;

use parsim_netlist::Circuit;

/// An algorithm assigning the gates of a circuit to `blocks` processors.
///
/// Implementations must return a partition with exactly `blocks` blocks and
/// an assignment for every gate; blocks may be empty (e.g. a 3-gate circuit
/// split 8 ways).
pub trait Partitioner {
    /// A short, stable, human-readable algorithm name (used in experiment
    /// tables).
    fn name(&self) -> &'static str;

    /// Partitions `circuit` into `blocks` blocks, balancing the given
    /// per-gate computational weights.
    ///
    /// # Panics
    ///
    /// Panics if `blocks` is zero or `weights.len() != circuit.len()`.
    fn partition(&self, circuit: &Circuit, blocks: usize, weights: &GateWeights) -> Partition;
}

/// Every built-in partitioner, boxed, for experiment sweeps.
///
/// The `seed` parameterizes the stochastic algorithms.
pub fn all_partitioners(seed: u64) -> Vec<Box<dyn Partitioner>> {
    vec![
        Box::new(RandomPartitioner::new(seed)),
        Box::new(RoundRobinPartitioner),
        Box::new(ContiguousPartitioner),
        Box::new(StringPartitioner),
        Box::new(ConePartitioner),
        Box::new(LevelPartitioner),
        Box::new(KernighanLin::default()),
        Box::new(FiducciaMattheyses::default()),
        Box::new(MultilevelPartitioner::default()),
        Box::new(AnnealingPartitioner::new(seed)),
    ]
}

/// The block with the smallest load; the first such block on a tie.
pub(crate) fn least_loaded(loads: &[f64]) -> usize {
    let (best, _) = loads
        .iter()
        .enumerate()
        .min_by(|a, b| a.1.partial_cmp(b.1).expect("loads are finite"))
        .expect("at least one block");
    best
}
