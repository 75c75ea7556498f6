//! The synchronous (global-clock) parallel kernel.
//!
//! "The simplest event-driven algorithm is the synchronous technique. Here,
//! the simulated time at all of the LPs is constrained to be the same. The
//! LPs process their events at the present simulated time and then
//! coordinate (typically via a barrier synchronization) to determine the
//! next point in simulated time that has events to be processed"
//! (Chamberlain, DAC '95 §IV).
//!
//! One protocol (`BarrierProtocol`, a `parsim_runtime::SyncProtocol`), two
//! drivers, one kernel type ([`FabricKernel`](parsim_runtime::FabricKernel)):
//!
//! * [`SyncSimulator`] — the *modeled* kernel: the fabric's deterministic
//!   single-threaded driver steps the protocol while charging every action
//!   to a [`VirtualMachine`](parsim_machine::VirtualMachine), producing the
//!   modeled speedups of Figure 1 / E3 / E8 / E9.
//! * [`ThreadedSyncSimulator`] — the same protocol object on the fabric's
//!   worker threads, mailbox mesh and round barrier; used for wall-clock
//!   measurements on real multiprocessors and as a second correctness
//!   witness.
//!
//! Both names are aliases of the one kernel type, so they share its
//! builder (`with_observe`, `with_probe`, `partition`); the threaded one
//! adds the driver's run options. The family has no settings of its own.
//!
//! On either driver each worker evaluates its dirty batch through its LP's
//! compiled bytecode (`parsim-compile`), and both produce logical results
//! identical to the sequential reference — the differential tests at the
//! bottom of this crate enforce it.
//!
//! # Examples
//!
//! ```
//! use parsim_core::{SequentialSimulator, Simulator, Stimulus};
//! use parsim_event::VirtualTime;
//! use parsim_logic::Bit;
//! use parsim_machine::MachineConfig;
//! use parsim_netlist::{generate, DelayModel};
//! use parsim_partition::{ConePartitioner, GateWeights, Partitioner};
//! use parsim_sync::SyncSimulator;
//!
//! let c = generate::ripple_adder(16, DelayModel::Unit);
//! let part = ConePartitioner.partition(&c, 8, &GateWeights::uniform(c.len()));
//! let sim = SyncSimulator::<Bit>::new(part, MachineConfig::shared_memory(8));
//! let stim = Stimulus::random(1, 20);
//! let out = sim.run(&c, &stim, VirtualTime::new(400));
//! let reference = SequentialSimulator::<Bit>::new().run(&c, &stim, VirtualTime::new(400));
//! assert_eq!(out.divergence_from(&reference), None);
//! assert!(out.stats.barriers > 0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod modeled;
mod threaded;

pub use modeled::SyncSimulator;
pub use threaded::ThreadedSyncSimulator;
