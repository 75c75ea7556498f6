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
//! drivers, one kernel type ([`FabricKernel`]): [`ConservativeSimulator`]
//! steps it on the virtual multiprocessor (the fabric's modeled driver;
//! modeled speedups for Figure 1), and [`ThreadedConservativeSimulator`]
//! runs the same protocol object on the fabric's worker threads and mailbox
//! mesh. Both take the family settings from [`ConservativeSettings`]. A
//! probe on either sees per-channel event and null-message sends (`lp` =
//! source LP, `arg` = destination LP — the axes of the null-ratio
//! analysis), batched gate evaluations per activation, and a `GvtAdvance`
//! per deadlock recovery. On either driver an LP evaluates each timestamp
//! batch through its compiled bytecode (`parsim-compile`).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod lp_state;
mod modeled;
mod threaded;

pub use modeled::ConservativeSimulator;
pub use threaded::ThreadedConservativeSimulator;

use parsim_runtime::FabricKernel;
use threaded::CmbProtocol;

/// The conservative family's settings, on both of its kernels. Defaults:
/// [`DeadlockStrategy::NullMessages`], one LP per partition block.
pub trait ConservativeSettings: Sized {
    /// Selects the deadlock discipline.
    fn with_strategy(self, strategy: DeadlockStrategy) -> Self;

    /// Splits every block into `factor` LPs (experiment E7: LP granularity).
    ///
    /// # Panics
    ///
    /// Panics if `factor` is zero.
    fn with_granularity(self, factor: usize) -> Self;
}

impl<D, V> ConservativeSettings for FabricKernel<CmbProtocol, D, V> {
    fn with_strategy(self, strategy: DeadlockStrategy) -> Self {
        self.map_protocol(|p| p.strategy = strategy)
    }

    fn with_granularity(self, factor: usize) -> Self {
        assert!(factor >= 1, "granularity factor must be at least 1");
        self.map_protocol(|p| p.granularity = factor)
    }
}

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
