//! Synchronization facade: the single import point for every lock, atomic
//! and thread primitive in the runtime fabric.
//!
//! Under a normal build this re-exports `std`; under `--cfg loom` (set by
//! the loom CI job via `RUSTFLAGS`) the same names resolve to the vendored
//! loom model checker's shims, so the whole fabric — barrier, mailboxes,
//! worker pool, poison recovery — can be exhaustively model-checked
//! without a single source change. `xtask lint-concurrency` enforces that
//! no code in this crate imports `std::sync::atomic` (or `std::thread` for
//! spawning) directly: everything goes through here, so nothing silently
//! escapes the model.

#[cfg(not(loom))]
pub use std::sync::{
    atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering},
    Arc, Condvar, Mutex, MutexGuard, OnceLock, PoisonError, WaitTimeoutResult,
};

#[cfg(not(loom))]
pub use std::thread;

/// Busy-wait support for bounded spin phases (the round barrier's
/// spin-then-park wait).
#[cfg(not(loom))]
pub mod hint {
    pub use std::hint::spin_loop;

    /// Upper bound on the polls of one spin phase. Under std the phase is
    /// ended by its wall-clock budget, so this never binds.
    pub const SPIN_POLL_LIMIT: u32 = u32::MAX;
}

/// Under the model checker a spin is a scheduling point, and a spin phase
/// is two polls long: time does not pass in a model, so a wall-clock
/// budget would never end it, and every extra poll multiplies the
/// explored schedules without adding a distinguishable one.
#[cfg(loom)]
pub mod hint {
    pub use loom::hint::spin_loop;

    pub const SPIN_POLL_LIMIT: u32 = 2;
}

/// Interior-mutability shim matching `loom::cell`'s closure-based API, so
/// lock-free code (the SPSC mailbox rings) can be model-checked without a
/// source change. Under std this is a zero-cost wrapper over
/// `std::cell::UnsafeCell`; under `--cfg loom` every access becomes a
/// scheduling point.
#[cfg(not(loom))]
pub mod cell {
    /// `loom::cell::UnsafeCell`-compatible cell: the raw pointer is lent to
    /// a closure instead of handed out to keep. Dereferencing it is on the
    /// caller (and is the only `unsafe` the runtime crate permits, in
    /// `spsc.rs`).
    ///
    /// `repr(transparent)` (over the likewise-transparent
    /// `std::cell::UnsafeCell<T>`) is load-bearing: the SPSC ring's bulk
    /// slot copies cast `*const UnsafeCell<MaybeUninit<M>>` down to
    /// `*mut M`, which is layout-sound only through this chain.
    #[derive(Debug, Default)]
    #[repr(transparent)]
    pub struct UnsafeCell<T> {
        v: std::cell::UnsafeCell<T>,
    }

    impl<T> UnsafeCell<T> {
        pub fn new(v: T) -> Self {
            Self { v: std::cell::UnsafeCell::new(v) }
        }

        /// Lends the closure a shared pointer to the contents.
        #[inline]
        pub fn with<R>(&self, f: impl FnOnce(*const T) -> R) -> R {
            f(self.v.get())
        }

        /// Lends the closure an exclusive pointer to the contents.
        #[inline]
        pub fn with_mut<R>(&self, f: impl FnOnce(*mut T) -> R) -> R {
            f(self.v.get())
        }

        pub fn into_inner(self) -> T {
            self.v.into_inner()
        }

        pub fn get_mut(&mut self) -> &mut T {
            self.v.get_mut()
        }
    }
}

#[cfg(loom)]
pub use loom::sync::{
    atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering},
    Arc, Condvar, Mutex, MutexGuard, PoisonError, WaitTimeoutResult,
};

/// Loom has no `OnceLock`. The fabric's one (its compiled blocks) is
/// filled before any worker starts, so it has no interleaving to model.
#[cfg(loom)]
pub use std::sync::OnceLock;

#[cfg(loom)]
pub use loom::thread;

#[cfg(loom)]
pub use loom::cell;
