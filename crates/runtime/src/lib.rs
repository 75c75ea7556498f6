//! # parsim-runtime
//!
//! The shared threaded LP execution fabric under every parallel kernel.
//!
//! The paper's parallel simulators (§IV) differ only in their
//! synchronization discipline — synchronous barriers, conservative
//! channel clocks with null messages, optimistic rollback with GVT. The
//! machinery around the discipline is identical: a pool of worker
//! threads, logical processes mapped onto workers, time-stamped messages
//! between them, a global agreement step, and merged results. Before this
//! crate existed, each threaded kernel carried its own copy of that
//! machinery; now it lives here once:
//!
//! - [`Fabric`] — compiles a circuit + [`Partition`](parsim_partition::Partition)
//!   into an LP topology and worker mapping, routes preloaded events, and
//!   drives the round/barrier loop to completion.
//! - [`SyncProtocol`] — the plug point: per-worker state, the message
//!   type, one round of local work, and the coordinator's decision.
//! - [`FabricKernel`] — the one kernel type users configure: a protocol
//!   value (carrying its family's settings) plus partition, observation,
//!   probe and a driver — [`Threads`] ([`Fabric::run`]) or [`Machine`]
//!   ([`Fabric::run_modeled`]). The family crates name it through aliases.
//! - [`MailboxMesh`] / [`Outbox`] — batched inter-worker delivery with
//!   FIFO-per-channel ordering over one lock-free bounded SPSC ring per
//!   (sender, receiver) pair; overflow spills losslessly to a mutexed
//!   side channel ([`MutexedMesh`] keeps the retired lock-based mesh
//!   alive behind the same [`Mesh`] trait as the E15 benchmark baseline).
//! - [`LpCore`] — flat struct-of-arrays per-LP gate state (net values,
//!   sequential gate state, waveforms, dirty marking) shared by every
//!   discipline's LP state machine, and the one gate evaluator below the
//!   fabric: each dirty batch runs through the LP's [`CompiledBlock`]
//!   ([`Fabric::compiled_block`]) on either driver.
//! - [`run_workers`] — the scoped worker pool itself: the workspace's one
//!   way to start simulation threads.
//!
//! The synchronous, conservative, Time Warp and breathing-time-buckets
//! kernels in `parsim-sync`, `parsim-conservative` and `parsim-optimistic`
//! are `SyncProtocol` implementations on this fabric, and their public
//! kernel names (modeled Time Warp's aside) are `FabricKernel` aliases.
//!
//! # Failure model
//!
//! The fabric is fault-tolerant end to end. [`Fabric::run`] returns
//! `Result<_, SimError>` instead of panicking: worker panics are caught at
//! the round boundary and converted into an abort broadcast on the
//! [`RoundBarrier`] (no peer ever hangs), lock poisoning is recovered
//! rather than cascaded, a coordinator abort fails *every* worker so no
//! partial results merge, and a [`RunBudget`](parsim_core::RunBudget) in
//! [`RunOptions`] degrades an over-budget run gracefully into truncated
//! partial results. A deterministic [`FaultPlan`] injects worker kills,
//! delivery faults (drop/delay/duplicate) and lock poisoning to prove all
//! of it under test.

// `deny`, not `forbid`: the SPSC mailbox rings in `spsc.rs` are the one
// audited exception (an `#[allow]` island, loom-model-checked); everything
// else in the crate stays safe code.
#![deny(unsafe_code)]

mod barrier;
mod fabric;
mod fault;
mod kernel;
mod mailbox;
mod poison;
mod pool;
mod protocol;
mod spsc;
mod state;
pub mod sync;

pub use barrier::{BarrierError, RoundBarrier};
pub use fabric::{Fabric, RunOptions};
pub use fault::{FaultPlan, FaultSpec};
pub use kernel::{FabricKernel, Machine, Threads};
pub use mailbox::{burst_capacity, MailboxMesh, Mesh, MutexedMesh, Outbox, DEFAULT_BATCH_LIMIT};
// Re-exported so the kernels can consume compiled blocks without a direct
// `parsim-compile` dependency edge.
pub use parsim_compile::{ArtifactStore, CacheOutcome, CompiledBlock};
pub use poison::lock_recover;
pub use pool::run_workers;
pub use protocol::{DecideCx, Decision, RoundCx, SyncProtocol, WorkerOutput};
pub use spsc::{DEFAULT_RING_CAPACITY, MAX_RING_CAPACITY};
pub use state::{GateStateSoa, LpCore};
