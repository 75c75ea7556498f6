//! The optimistic asynchronous (Time Warp) parallel kernel.
//!
//! "The original optimistic algorithm is the Time Warp algorithm of
//! Jefferson. In the optimistic approach, simulation messages are processed
//! immediately upon receipt at an LP. If a straggler message is received
//! with a time stamp earlier than the local simulated time, then the LP
//! executes a rollback. ... As part of a rollback, if outgoing messages have
//! been delivered to downstream LPs, they are sent anti-messages to cancel
//! the original message" (Chamberlain, DAC '95 §IV).
//!
//! The full §IV/§V mechanism set is implemented and configurable:
//!
//! * **rollback** with state restoration, straggler and anti-message
//!   triggered;
//! * **state saving**: full-copy or *incremental* ([`StateSaving`]) — §V:
//!   "incremental state saving is crucial to achieving good performance";
//! * **cancellation**: aggressive or Gafni's *lazy* ([`Cancellation`]) —
//!   lazy waits "to cancel the message until it is known that the wrong
//!   message had been sent";
//! * **GVT** computation with fossil collection of state/event history;
//! * an optional **time window** throttle bounding optimism.
//!
//! [`TimeWarpSimulator`] runs on the virtual multiprocessor with a
//! deterministic smallest-clock scheduler; [`ThreadedTimeWarpSimulator`]
//! — one protocol (`TwProtocol`) on the threaded driver of the one kernel
//! type, [`FabricKernel`], with the family settings of [`TimeWarpSettings`]
//! — runs the identical LP state machine on real threads in fabric rounds,
//! where stragglers and rollbacks arise from messages that cross a round
//! boundary after the receiver has speculated past them — which messages
//! those are is fixed by the round structure, so its statistics repeat
//! exactly from run to run.
//!
//! The §VI hybrid, breathing time buckets, is one superstep protocol over
//! the same LP state machine on both fabric drivers ([`BtbSimulator`],
//! [`ThreadedBtbSimulator`], setting: [`BtbSettings`]). A breath is two
//! rounds: speculate with held sends and agree on the event horizon; roll
//! back past it locally and release what committed.
//!
//! Every kernel here evaluates each batch through the LP's compiled
//! bytecode (`parsim-compile`) and commits the sequential reference's
//! history, only out of order.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod btb;
mod lp;
mod modeled;
mod threaded;

pub use btb::{BtbSimulator, ThreadedBtbSimulator};
pub use modeled::TimeWarpSimulator;
pub use threaded::ThreadedTimeWarpSimulator;

use btb::BtbProtocol;
use parsim_runtime::{FabricKernel, Threads};
use threaded::TwProtocol;

/// The Time Warp family's settings on [`ThreadedTimeWarpSimulator`].
/// Defaults: [`StateSaving::Incremental`], [`Cancellation::Lazy`], one LP
/// per partition block. ([`TimeWarpSimulator`] has the same setters as
/// inherent methods.)
pub trait TimeWarpSettings: Sized {
    /// Selects the state-saving discipline.
    fn with_state_saving(self, saving: StateSaving) -> Self;

    /// Selects the cancellation discipline.
    fn with_cancellation(self, cancellation: Cancellation) -> Self;

    /// Splits every block into `factor` LPs.
    ///
    /// # Panics
    ///
    /// Panics if `factor` is zero.
    fn with_granularity(self, factor: usize) -> Self;
}

impl<V> TimeWarpSettings for FabricKernel<TwProtocol, Threads, V> {
    fn with_state_saving(self, saving: StateSaving) -> Self {
        self.map_protocol(|p| p.saving = saving)
    }

    fn with_cancellation(self, cancellation: Cancellation) -> Self {
        self.map_protocol(|p| p.cancellation = cancellation)
    }

    fn with_granularity(self, factor: usize) -> Self {
        assert!(factor >= 1, "granularity factor must be at least 1");
        self.map_protocol(|p| p.granularity = factor)
    }
}

/// The breathing-time-buckets setting, on both of its kernels: the LP
/// granularity (default one LP per block). State saving and cancellation
/// are fixed:
///
/// ```compile_fail,E0599
/// # use parsim_optimistic::{Cancellation, TimeWarpSettings};
/// # let k: parsim_optimistic::ThreadedBtbSimulator<parsim_logic::Bit> = todo!();
/// k.with_cancellation(Cancellation::Lazy);
/// ```
pub trait BtbSettings: Sized {
    /// Splits every block into `factor` LPs.
    ///
    /// # Panics
    ///
    /// Panics if `factor` is zero.
    fn with_granularity(self, factor: usize) -> Self;
}

impl<D, V> BtbSettings for FabricKernel<BtbProtocol, D, V> {
    fn with_granularity(self, factor: usize) -> Self {
        assert!(factor >= 1, "granularity factor must be at least 1");
        self.map_protocol(|p| p.granularity = factor)
    }
}

/// State-saving discipline (§IV/§V).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum StateSaving {
    /// Snapshot the LP's complete state after every processed batch.
    Copy,
    /// Record only the values overwritten by each batch ("frequently only
    /// the change in state is saved", §IV). The default.
    #[default]
    Incremental,
}

/// Optimism control for the Time Warp kernel (§VI: "optimistic
/// asynchronous algorithms are being extensively studied in an attempt to
/// understand how they can be effectively controlled to deliver consistent
/// performance").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Window {
    /// Bound optimism to `max(2 × max gate delay, 16)` ticks beyond the
    /// GVT estimate (the default: controlled optimism, as in Briner's
    /// bounded-window implementation). With aggressive cancellation an
    /// unbounded window invites the anti-message echo this bound exists to
    /// dampen.
    #[default]
    Auto,
    /// A fixed window of the given width in ticks.
    Fixed(u64),
    /// Unthrottled Time Warp — pure Jefferson. Exhibits exactly the §V
    /// "inconsistency in performance": on unfavourable partitions the
    /// rollback echo can make runtime explode.
    Unbounded,
}

/// Cancellation discipline for rolled-back output messages (§IV).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Cancellation {
    /// Send anti-messages for every rolled-back output immediately. In
    /// fine-grained logic simulation most re-executions regenerate the
    /// identical messages, so aggressive cancellation floods the network
    /// with `anti(e); e` pairs whose deliveries trigger further rollbacks —
    /// the echo behind the §V observation that "seemingly small variations
    /// in circumstances can trigger dramatic swings in performance".
    Aggressive,
    /// Gafni's lazy cancellation: hold rolled-back outputs; if re-execution
    /// regenerates the identical message it is never cancelled ("if the
    /// right event had been calculated for the wrong reasons, the receiving
    /// processor is not inhibited"). The default — in gate-level simulation
    /// it is the difference between linear and explosive behaviour
    /// (experiment E4).
    #[default]
    Lazy,
}
