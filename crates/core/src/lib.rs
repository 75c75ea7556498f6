//! Core simulation semantics, reference kernels, stimulus and results.
//!
//! This crate defines everything the kernels have in common, plus the
//! reference kernel they are all tested against:
//!
//! * [`evaluate_gate`] / [`GateRuntime`] — the *exact* gate evaluation
//!   semantics (apply all input changes at a timestamp, evaluate each
//!   affected gate once, schedule an output event only when the driven value
//!   changes). The sequential reference kernel calls it; every other kernel
//!   runs `parsim-compile`'s bytecode, whose executors reproduce these
//!   semantics exactly, so differential testing against the sequential
//!   reference is exact, not approximate.
//! * [`SequentialSimulator`] — the classic single-event-queue reference
//!   kernel; the oracle for all correctness tests, and the engine behind
//!   [`pre_simulate`] (§III pre-simulation load profiling).
//! * [`Stimulus`] — deterministic test-vector sources (random, counting,
//!   explicit, with square-wave clocks for sequential circuits).
//! * [`SimOutcome`] / [`SimStats`] / [`Waveform`] — results, protocol
//!   statistics and signal traces; [`WaveRecorder`] — the net-indexed
//!   observation map every kernel records its waveforms through.
//! * [`Simulator`] — the object-safe trait the experiment harness sweeps
//!   over.
//!
//! # Examples
//!
//! ```
//! use parsim_core::{SequentialSimulator, Simulator, Stimulus};
//! use parsim_event::VirtualTime;
//! use parsim_logic::Logic4;
//! use parsim_netlist::bench;
//!
//! let c = bench::c17();
//! let stim = Stimulus::random(42, 10);
//! let sim = SequentialSimulator::<Logic4>::new();
//! let out = sim.run(&c, &stim, VirtualTime::new(200));
//! assert!(out.stats.events_processed > 0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod error;
mod eval;
pub mod fault;
mod lp;
mod outcome;
mod profile;
mod recorder;
mod sequential;
mod simulator;
mod stimulus;
mod vcd;
mod waveform;

pub use error::{BudgetExhausted, RunBudget, SimError, WorkerDiagnostic};
pub use eval::{evaluate_gate, GateRuntime};
pub use lp::{LpSpec, LpTopology};
pub use outcome::{SimOutcome, SimStats};
pub use profile::{pre_simulate, ActivityProfile};
pub use recorder::WaveRecorder;
pub use sequential::SequentialSimulator;
pub use simulator::{Observe, Simulator};
pub use stimulus::Stimulus;
pub use vcd::{parse_vcd_changes, write_vcd};
pub use waveform::Waveform;
