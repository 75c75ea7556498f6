//! The conservative asynchronous (Chandy–Misra–Bryant) parallel kernel.
//!
//! "Conservative algorithms process messages in strictly non-decreasing
//! order, preserving causality constraints at all times. This safety
//! condition is enforced by advancing local simulated time to the smallest
//! time stamp received from any neighboring LP. This rule (called the input
//! waiting rule) can lead to blocking and even deadlock; therefore,
//! techniques are needed to prevent (or detect and resolve) deadlock"
//! (Chamberlain, DAC '95 §IV).
//!
//! Both §IV deadlock disciplines are implemented, selectable via
//! [`DeadlockStrategy`]:
//!
//! * **Null messages** (deadlock avoidance): after each activation an LP
//!   promises its downstream neighbours that it will send nothing earlier
//!   than `min(next local event, input safe time) + lookahead`, where the
//!   lookahead is the smallest delay of any gate driving an outgoing
//!   channel. Small lookahead ⇒ many null messages — experiment E10.
//! * **Detect and recover**: no null messages at all; when every LP blocks,
//!   a circulating marker detects the deadlock and a recovery round
//!   advances every channel clock past the global-minimum pending event
//!   time.
//!
//! Events are transmitted when they are *scheduled* (at evaluation time),
//! not when their timestamp is reached; channel clocks are carried solely
//! by null messages / recovery. This keeps same-timestamp batches atomic
//! across LPs, which is what makes the kernel's results bit-identical to
//! the sequential reference.
//!
//! One protocol (`CmbProtocol`, a `parsim_runtime::SyncProtocol`), two
//! drivers: [`ConservativeSimulator`] steps it on the virtual multiprocessor
//! (the fabric's modeled driver; modeled speedups for Figure 1), and
//! [`ThreadedConservativeSimulator`] runs the same protocol object on the
//! fabric's worker threads and mailbox mesh.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod lp_state;
mod modeled;
mod threaded;

pub use modeled::ConservativeSimulator;
pub use threaded::ThreadedConservativeSimulator;

/// How the kernel deals with the input-waiting-rule deadlock (§IV).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum DeadlockStrategy {
    /// Avoid deadlock with lookahead-based null messages (the default).
    #[default]
    NullMessages,
    /// Send no null messages; detect global deadlock with a circulating
    /// marker and recover by advancing every channel clock past the global
    /// minimum pending event time.
    DetectAndRecover,
}
