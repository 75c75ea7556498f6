//! Structured failure reporting and run budgets.
//!
//! Long-running parallel simulations fail in routine, recoverable ways: a
//! worker thread panics mid-round, a protocol invariant trips, an injected
//! or real delivery fault corrupts a channel, or the run simply exhausts
//! its budget. [`SimError`] is the structured form of the *fatal* subset —
//! what a fallible kernel entry point returns instead of tearing the
//! process down — and [`RunBudget`] bounds a run so exhaustion degrades
//! gracefully (partial results flagged truncated) rather than erroring.

use std::fmt::{self, Display};
use std::time::Duration;

use parsim_event::VirtualTime;

/// Where in the run a worker failed: which worker, which LP it was
/// serving, how far it had advanced in virtual time, and the
/// synchronization round.
///
/// The LP and virtual time are *best-effort progress marks* updated by the
/// protocol as it works; a worker that fails before marking any progress
/// reports `None` for both.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WorkerDiagnostic {
    /// The worker (thread) that failed.
    pub worker: usize,
    /// The LP the worker last worked on, if it marked any.
    pub lp: Option<usize>,
    /// The virtual time the worker last reached, if it marked any.
    pub virtual_time: Option<VirtualTime>,
    /// The synchronization round the failure happened in (1-based).
    pub round: u64,
}

impl Display for WorkerDiagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "worker {} (round {}", self.worker, self.round)?;
        if let Some(lp) = self.lp {
            write!(f, ", lp {lp}")?;
        }
        if let Some(vt) = self.virtual_time {
            write!(f, ", vt {vt}")?;
        }
        write!(f, ")")
    }
}

/// A fatal simulation failure, carrying enough structure to diagnose which
/// worker failed, where it was, and why — without taking the process down.
///
/// Returned by the fallible kernel entry points (`Fabric::run` and the
/// threaded simulators' `try_run`). The infallible
/// [`Simulator::run`](crate::Simulator::run) wrappers panic with the
/// [`Display`] form.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum SimError {
    /// A worker thread panicked. The panic was caught at the round
    /// boundary and converted into a barrier-safe abort, so no peer hangs;
    /// `also_failed` lists any other workers that failed in the same run
    /// (e.g. a second injected kill, or casualties of the abort).
    WorkerPanic {
        /// The first failing worker.
        diagnostic: WorkerDiagnostic,
        /// The panic payload, rendered to a string.
        message: String,
        /// Diagnostics of any other workers that also failed.
        also_failed: Vec<WorkerDiagnostic>,
    },
    /// The protocol coordinator aborted the run (a protocol invariant
    /// broke). Every worker observes this as an error — none returns
    /// partial results that could merge as if complete.
    ProtocolAbort {
        /// The round the abort was decided in (1-based).
        round: u64,
        /// The protocol's abort message.
        reason: String,
    },
    /// A message batch was lost, delayed past its delivery round, or
    /// duplicated (detected by the runtime's delivery accounting, e.g.
    /// under fault injection with recovery disabled) and the run cannot
    /// continue correctly.
    DeliveryFault {
        /// The round the violation was detected in (1-based).
        round: u64,
        /// Human-readable description of the violated deliveries.
        detail: String,
    },
    /// A shared lock was poisoned and the poisoned state could not be
    /// safely recovered. With the runtime's poison-tolerant locking this
    /// is rare — a poisoned guard is normally recovered and the original
    /// failure surfaced as [`SimError::WorkerPanic`] instead.
    LockPoisoned {
        /// Which lock was poisoned.
        what: String,
        /// Where the poisoning was observed.
        context: String,
    },
    /// A synchronization barrier timed out: some worker stopped
    /// participating without panicking (a hang, not a crash).
    BarrierTimeout {
        /// The worker whose wait timed out.
        worker: usize,
        /// The round the timeout happened in (1-based).
        round: u64,
        /// How long the worker waited.
        waited: Duration,
        /// The workers that never arrived at the barrier, with their
        /// best-effort progress marks — the hang's likely culprits. Empty
        /// only when the runtime could not attribute the stall.
        stalled: Vec<WorkerDiagnostic>,
    },
}

impl SimError {
    /// The synchronization round the failure happened in, when one applies.
    pub fn round(&self) -> Option<u64> {
        match self {
            SimError::WorkerPanic { diagnostic, .. } => Some(diagnostic.round),
            SimError::ProtocolAbort { round, .. }
            | SimError::DeliveryFault { round, .. }
            | SimError::BarrierTimeout { round, .. } => Some(*round),
            SimError::LockPoisoned { .. } => None,
        }
    }

    /// The first failing worker, when the failure is attributable to one.
    pub fn worker(&self) -> Option<usize> {
        match self {
            SimError::WorkerPanic { diagnostic, .. } => Some(diagnostic.worker),
            SimError::BarrierTimeout { worker, .. } => Some(*worker),
            _ => None,
        }
    }
}

impl Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::WorkerPanic { diagnostic, message, also_failed } => {
                write!(f, "{diagnostic} panicked: {message}")?;
                if !also_failed.is_empty() {
                    write!(f, "; also failed:")?;
                    for d in also_failed {
                        write!(f, " {d}")?;
                    }
                }
                Ok(())
            }
            SimError::ProtocolAbort { round, reason } => {
                write!(f, "protocol aborted at round {round}: {reason}")
            }
            SimError::DeliveryFault { round, detail } => {
                write!(f, "message delivery violated at round {round}: {detail}")
            }
            SimError::LockPoisoned { what, context } => {
                write!(f, "{what} lock poisoned ({context})")
            }
            SimError::BarrierTimeout { worker, round, waited, stalled } => {
                write!(
                    f,
                    "worker {worker} timed out after {waited:?} at the round-{round} barrier \
                     (a peer stopped participating)"
                )?;
                if !stalled.is_empty() {
                    write!(f, "; stalled:")?;
                    for d in stalled {
                        write!(f, " {d}")?;
                    }
                }
                Ok(())
            }
        }
    }
}

impl std::error::Error for SimError {}

/// Resource bounds on one simulation run.
///
/// An exhausted budget is *graceful degradation*, not an error: the run
/// stops cleanly at the next synchronization round, merges whatever was
/// simulated so far, and flags the outcome's
/// [`SimStats::truncated`](crate::SimStats::truncated). The default budget
/// is unlimited.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RunBudget {
    /// Stop after this many synchronization rounds.
    pub max_rounds: Option<u64>,
    /// Stop once the workers have processed (at least) this many events in
    /// total. Checked at round boundaries, so the overshoot is at most one
    /// round's worth of events.
    pub max_events: Option<u64>,
    /// Stop once this much host wall-clock time has elapsed. Checked at
    /// round boundaries; a round in flight always completes.
    pub deadline: Option<Duration>,
}

impl RunBudget {
    /// No bounds at all (the default).
    pub const UNLIMITED: RunBudget =
        RunBudget { max_rounds: None, max_events: None, deadline: None };

    /// Caps the synchronization-round count.
    pub fn with_max_rounds(mut self, rounds: u64) -> Self {
        self.max_rounds = Some(rounds);
        self
    }

    /// Caps the total processed-event count.
    pub fn with_max_events(mut self, events: u64) -> Self {
        self.max_events = Some(events);
        self
    }

    /// Caps the host wall-clock time.
    pub fn with_deadline(mut self, deadline: Duration) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// Which bound (if any) is exhausted by the given usage.
    pub fn exceeded_by(
        &self,
        rounds: u64,
        events: u64,
        elapsed: Duration,
    ) -> Option<BudgetExhausted> {
        if self.max_rounds.is_some_and(|m| rounds >= m) {
            Some(BudgetExhausted::Rounds)
        } else if self.max_events.is_some_and(|m| events >= m) {
            Some(BudgetExhausted::Events)
        } else if self.deadline.is_some_and(|d| elapsed >= d) {
            Some(BudgetExhausted::Deadline)
        } else {
            None
        }
    }
}

/// Which [`RunBudget`] bound stopped a truncated run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BudgetExhausted {
    /// [`RunBudget::max_rounds`] was reached.
    Rounds,
    /// [`RunBudget::max_events`] was reached.
    Events,
    /// [`RunBudget::deadline`] passed.
    Deadline,
}

impl Display for BudgetExhausted {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            BudgetExhausted::Rounds => "round budget",
            BudgetExhausted::Events => "event budget",
            BudgetExhausted::Deadline => "wall-clock deadline",
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_carries_the_diagnostics() {
        let e = SimError::WorkerPanic {
            diagnostic: WorkerDiagnostic {
                worker: 2,
                lp: Some(7),
                virtual_time: Some(VirtualTime::new(40)),
                round: 5,
            },
            message: "boom".into(),
            also_failed: vec![WorkerDiagnostic {
                worker: 3,
                lp: None,
                virtual_time: None,
                round: 5,
            }],
        };
        let s = e.to_string();
        assert!(s.contains("worker 2"), "{s}");
        assert!(s.contains("round 5"), "{s}");
        assert!(s.contains("lp 7"), "{s}");
        assert!(s.contains("boom"), "{s}");
        assert!(s.contains("worker 3"), "{s}");
        assert_eq!(e.round(), Some(5));
        assert_eq!(e.worker(), Some(2));
    }

    #[test]
    fn barrier_timeout_names_the_stalled_workers() {
        let e = SimError::BarrierTimeout {
            worker: 0,
            round: 4,
            waited: Duration::from_millis(250),
            stalled: vec![WorkerDiagnostic {
                worker: 3,
                lp: Some(9),
                virtual_time: Some(VirtualTime::new(120)),
                round: 4,
            }],
        };
        let s = e.to_string();
        assert!(s.contains("worker 0 timed out"), "{s}");
        assert!(s.contains("round-4 barrier"), "{s}");
        assert!(s.contains("stalled:"), "{s}");
        assert!(s.contains("worker 3"), "{s}");
        assert!(s.contains("lp 9"), "{s}");
        assert_eq!(e.round(), Some(4));
        assert_eq!(e.worker(), Some(0));
    }

    #[test]
    fn budget_exhaustion_order_is_rounds_events_deadline() {
        let b = RunBudget::default()
            .with_max_rounds(10)
            .with_max_events(100)
            .with_deadline(Duration::from_secs(1));
        assert_eq!(b.exceeded_by(9, 99, Duration::ZERO), None);
        assert_eq!(b.exceeded_by(10, 99, Duration::ZERO), Some(BudgetExhausted::Rounds));
        assert_eq!(b.exceeded_by(9, 100, Duration::ZERO), Some(BudgetExhausted::Events));
        assert_eq!(b.exceeded_by(9, 99, Duration::from_secs(2)), Some(BudgetExhausted::Deadline));
        assert!(RunBudget::UNLIMITED.exceeded_by(u64::MAX, u64::MAX, Duration::MAX).is_none());
        assert_eq!(RunBudget::default(), RunBudget::UNLIMITED);
    }
}
