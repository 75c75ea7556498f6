//! The built-in lint passes.
//!
//! Grouped by what they protect:
//!
//! * [`structural`] — the builder's structural errors (cycles, undefined
//!   gates, arity, duplicate names, [`parsim_netlist::NetlistError`]) as
//!   site-carrying diagnostics,
//! * logic quality — [`UnusedInput`], [`DeadLogic`], [`ConstCone`],
//!   [`DuplicateGate`]: correctness-adjacent findings and synthesis
//!   opportunities,
//! * parallel performance — [`FanoutHotspot`], [`ShapeImbalance`],
//!   [`ZeroDelayLoop`]: predictors of event storms, load skew and livelock
//!   in the simulation kernels (§IV),
//! * partition quality — [`LoadImbalance`], [`HighCut`]: the two §III
//!   objectives, load balance and communication cut.

pub mod structural;

mod logic_quality;
mod partition_quality;
mod performance;

pub use logic_quality::{ConstCone, DeadLogic, DuplicateGate, UnusedInput};
pub use partition_quality::{HighCut, LoadImbalance};
pub use performance::{FanoutHotspot, ShapeImbalance, ZeroDelayLoop};
