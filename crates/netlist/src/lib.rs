//! Gate-level circuit representation for parallel logic simulation.
//!
//! A [`Circuit`] is an arena of gates; every gate drives exactly one net, so
//! nets are identified by the [`GateId`] of their driver. Fanout adjacency
//! (which gates a net feeds, and at which input pin) mirrors "the circuit
//! connectivity of the VLSI system" that the paper's §II maps onto logical-
//! process communication channels.
//!
//! The crate provides:
//!
//! * [`CircuitBuilder`] — validating construction (arity, dangling nets,
//!   combinational cycles),
//! * [`Levelization`] — topological levels for levelized partitioning and
//!   the depth statistic, from the one combinational peel the builder's
//!   cycle check also runs,
//! * [`Condensation`] — the strongly connected components of any edge
//!   subset (register loops for the cone partitioner, zero-delay loops for
//!   lint),
//! * [`mod@bench`] — ISCAS `.bench` format parsing and writing, with the classic
//!   `c17` benchmark embedded,
//! * [`dot`] — Graphviz export (optionally clustered by partition block),
//! * [`generate`] — parameterized synthetic circuit generators (adders,
//!   multipliers, LFSRs, random DAGs, trees, meshes) used to scale circuits
//!   from hundreds to hundreds of thousands of gates for the Figure 1
//!   experiments,
//! * [`CircuitStats`] — structural statistics (the paper's "circuit
//!   structure" performance factor).
//!
//! # Examples
//!
//! ```
//! use parsim_logic::GateKind;
//! use parsim_netlist::{CircuitBuilder, Delay};
//!
//! let mut b = CircuitBuilder::new("half_adder");
//! let a = b.input("a");
//! let c = b.input("b");
//! let sum = b.gate(GateKind::Xor, [a, c], Delay::new(2));
//! let carry = b.gate(GateKind::And, [a, c], Delay::new(1));
//! b.output("sum", sum);
//! b.output("carry", carry);
//! let circuit = b.finish()?;
//! assert_eq!(circuit.len(), 4);
//! assert_eq!(circuit.fanout(a).len(), 2);
//! # Ok::<(), parsim_netlist::NetlistError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bench;
mod builder;
mod circuit;
mod delay;
pub mod dot;
pub mod generate;
mod graph;
mod hash;
mod ids;
mod levelize;
mod stats;

pub use builder::{CircuitBuilder, NetlistError, StructuralReport};
pub use circuit::{Circuit, FanoutEntry, Gate};
pub use delay::{Delay, DelayModel};
pub use graph::Condensation;
pub use hash::Fnv1a;
pub use ids::GateId;
pub use levelize::Levelization;
pub use stats::CircuitStats;
