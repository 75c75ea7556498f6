//! `parsim-bitsim` — the bit-parallel compiled oblivious kernel.
//!
//! The paper's §II names *data parallelism* as one of the two parallelisms
//! in logic simulation: "the same operation on many data items", most
//! effective "for fault simulation, where a large number of independent
//! input vectors need to be simulated". This crate exploits it the classic
//! way — bit parallelism: [`LANES`] (64) independent simulation machines
//! packed into the bit positions of machine words, so one word-wide boolean
//! operation evaluates a gate for all 64 machines at once.
//!
//! The pieces:
//!
//! - [`PackedValue`] with two carriers: [`PackedBit`] (one `u64` plane, the
//!   two-valued fast path) and [`PackedLogic4`] (two planes packing the
//!   four-valued `Logic4`, with word-wide X/Z propagation).
//! - the whole-circuit `parsim_compile::CompiledBlock`: the circuit
//!   lowered into a straight-line kind-major evaluation schedule, compiled
//!   once per run after the unit-delay check.
//! - [`BitSimulator`]: the §IV oblivious discipline over packed words —
//!   every gate evaluated every tick, double-buffered unit-delay
//!   semantics, in one single-threaded loop (more cores run independent
//!   packed passes, never shards of one).
//! - [`ObliviousSimulator`]: the scalar oblivious kernel, which is
//!   [`BitSimulator`] at one lane behind the
//!   [`Simulator`](parsim_core::Simulator) trait, for the value systems
//!   with a packed carrier ([`Packable`]).
//! - [`PackedStimulus`] / [`PackedOutcome`]: transposing 64 scalar
//!   [`Stimulus`](parsim_core::Stimulus) streams into packed events and
//!   projecting per-lane scalar [`SimOutcome`](parsim_core::SimOutcome)s
//!   back out.
//! - [`simulate_faults_packed`]: the fault-campaign fast path — up to 64
//!   faulty machines per packed pass via per-lane stuck-value forcing.
//!
//! # Determinism contract
//!
//! Lane `k` of a packed run is **bit-identical** to a scalar run driven by
//! stimulus lane `k` alone — final values and waveforms, against the
//! scalar kernels. The differential suite (`tests/bitsim.rs`) holds the
//! crate to this contract.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod fault;
mod oblivious;
mod packed;
mod sim;
mod stimulus;

pub use fault::simulate_faults_packed;
pub use oblivious::{ObliviousSimulator, Packable};
pub use packed::{PackedBit, PackedLogic4, PackedValue, LANES};
pub use sim::{BitSimulator, PackedForce};
pub use stimulus::{PackedEvent, PackedOutcome, PackedStimulus, PackedWaveform};
