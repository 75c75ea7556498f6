//! Deterministic fault injection for the runtime fabric.
//!
//! Long-running parallel simulations must absorb routine failures — a
//! worker dying mid-round, a message batch lost, delayed or duplicated in
//! transit, a lock poisoned by a panicking thread. This module injects
//! exactly those faults at the two places they occur in a real deployment:
//! the worker pool (kills) and the mailbox mesh (delivery faults), driven
//! by an explicit plan or a deterministic seed so every campaign replays
//! bit-identically.
//!
//! The mesh's injection point doubles as a reliable-delivery layer: every
//! batch posted carries an implicit per-*channel* (sender × receiver)
//! sequence number. Channel counters are the lock-free-mesh fix: under
//! the old mutexed mesh a per-destination counter was implicitly
//! serialized by the slot lock, but with SPSC rings two senders' posts to
//! one destination interleave freely, and a shared counter would make
//! "the seq-th batch" racy — recovery could then suppress the wrong
//! batch as a duplicate. Per-channel counters stay contiguous per sender
//! with no cross-sender serialization at all. With [`recovery`](FaultPlan::with_recovery) *enabled*,
//! an injected drop/delay/duplicate is caught at that point and corrected
//! before the round barrier (the batch is retained and re-delivered, the
//! duplicate suppressed) — modelling retransmission on a lossy transport —
//! so the run's logical results are identical to a fault-free run. With
//! recovery *disabled*, the fault actually corrupts delivery; the fabric's
//! accounting detects the violation at the next coordinator step and the
//! run fails fast with a structured
//! [`SimError::DeliveryFault`](parsim_core::SimError) instead of hanging
//! or silently merging partial results.
//!
//! Injected faults and their recoveries are reported to the trace layer
//! (`TraceKind::FaultInject` / `TraceKind::FaultRecover`), so a Perfetto
//! export of an injection campaign shows exactly where the run was hit.

use crate::sync::{AtomicU64, Mutex, Ordering};
use std::collections::BTreeMap;

use crate::poison::lock_recover;

/// One injected fault.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum FaultSpec {
    /// Panic worker `worker` at the start of round `round` (1-based). A
    /// kill is never recoverable — the run returns
    /// `SimError::WorkerPanic` — but it must not hang any peer.
    KillWorker {
        /// The worker to kill.
        worker: usize,
        /// The round to kill it in (1-based).
        round: u64,
    },
    /// Hold the `seq`-th batch posted on channel `src -> dst` (0-based,
    /// counted per channel) for `rounds` extra rounds, violating the
    /// fabric's delivered-by-next-round guarantee.
    DelayBatch {
        /// Sending worker of the delayed batch.
        src: usize,
        /// Destination worker whose batch is delayed.
        dst: usize,
        /// Per-channel batch sequence number (0-based).
        seq: u64,
        /// Extra rounds to hold the batch.
        rounds: u64,
    },
    /// Discard the `seq`-th batch posted on channel `src -> dst`.
    DropBatch {
        /// Sending worker of the dropped batch.
        src: usize,
        /// Destination worker whose batch is dropped.
        dst: usize,
        /// Per-channel batch sequence number (0-based).
        seq: u64,
    },
    /// Deliver the `seq`-th batch posted on channel `src -> dst` twice.
    DuplicateBatch {
        /// Sending worker of the duplicated batch.
        src: usize,
        /// Destination worker whose batch is duplicated.
        dst: usize,
        /// Per-channel batch sequence number (0-based).
        seq: u64,
    },
    /// Poison worker `worker`'s mailbox lock at the start of round
    /// `round`, as a panicking thread holding the guard would. The mesh's
    /// poison-tolerant locking always recovers the guard; the injection
    /// proves that recovery path end to end.
    PoisonLock {
        /// The worker whose mailbox lock is poisoned.
        worker: usize,
        /// The round to poison it in (1-based).
        round: u64,
    },
    /// Stall worker `worker` at the start of round `round` (1-based): the
    /// worker stops participating — no panic, no progress — until the run
    /// fails around it. This is the hang
    /// [`RunOptions::barrier_timeout`](crate::RunOptions::barrier_timeout)
    /// exists to catch; a plan with a stall but no barrier timeout
    /// reproduces the unguarded hang itself, so pair them.
    StallWorker {
        /// The worker to stall.
        worker: usize,
        /// The round to stall it in (1-based).
        round: u64,
    },
}

/// A deterministic fault-injection campaign for one run.
///
/// Build one explicitly with the `with_*` constructors, or derive a
/// campaign from a seed with [`FaultPlan::random`]. An empty plan is a
/// valid no-op: the injection layer is compiled in but injects nothing,
/// and a run with it attached is bit-identical to a run without.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultPlan {
    specs: Vec<FaultSpec>,
    recover: bool,
}

impl FaultPlan {
    /// An empty plan (injects nothing).
    pub fn new() -> Self {
        FaultPlan::default()
    }

    /// Adds one fault.
    pub fn with(mut self, spec: FaultSpec) -> Self {
        self.specs.push(spec);
        self
    }

    /// Kills `worker` at round `round`.
    pub fn with_kill(self, worker: usize, round: u64) -> Self {
        self.with(FaultSpec::KillWorker { worker, round })
    }

    /// Delays the `seq`-th batch on channel `src -> dst` by `rounds`
    /// rounds.
    pub fn with_delay(self, src: usize, dst: usize, seq: u64, rounds: u64) -> Self {
        self.with(FaultSpec::DelayBatch { src, dst, seq, rounds })
    }

    /// Drops the `seq`-th batch on channel `src -> dst`.
    pub fn with_drop(self, src: usize, dst: usize, seq: u64) -> Self {
        self.with(FaultSpec::DropBatch { src, dst, seq })
    }

    /// Duplicates the `seq`-th batch on channel `src -> dst`.
    pub fn with_duplicate(self, src: usize, dst: usize, seq: u64) -> Self {
        self.with(FaultSpec::DuplicateBatch { src, dst, seq })
    }

    /// Poisons `worker`'s mailbox lock at round `round`.
    pub fn with_poison(self, worker: usize, round: u64) -> Self {
        self.with(FaultSpec::PoisonLock { worker, round })
    }

    /// Stalls `worker` at round `round` (a hang, not a crash). Pair with
    /// [`RunOptions::barrier_timeout`](crate::RunOptions::barrier_timeout),
    /// which is the guard this fault exercises.
    pub fn with_stall(self, worker: usize, round: u64) -> Self {
        self.with(FaultSpec::StallWorker { worker, round })
    }

    /// Enables or disables recovery for the delivery faults (see the
    /// module docs). Kills are never recoverable; lock poisoning is always
    /// recovered by the mesh's poison-tolerant locking.
    pub fn with_recovery(mut self, recover: bool) -> Self {
        self.recover = recover;
        self
    }

    /// A seed-derived campaign of `count` delivery/poison faults over
    /// `workers` workers (no kills — seed sweeps are for measuring the
    /// recovery layer, and a kill ends the run). The same seed always
    /// yields the same plan.
    ///
    /// # Panics
    ///
    /// Panics if `workers` is zero.
    pub fn random(seed: u64, workers: usize, count: usize) -> Self {
        assert!(workers >= 1, "fault plan needs at least one worker");
        let mut rng = SplitMix64::new(seed);
        let mut plan = FaultPlan::new();
        for _ in 0..count {
            let src = (rng.next() % workers as u64) as usize;
            let dst = (rng.next() % workers as u64) as usize;
            let seq = rng.next() % 4;
            let round = 1 + rng.next() % 8;
            plan = match rng.next() % 4 {
                0 => plan.with_delay(src, dst, seq, 1 + rng.next() % 2),
                1 => plan.with_drop(src, dst, seq),
                2 => plan.with_duplicate(src, dst, seq),
                _ => plan.with_poison(dst, round),
            };
        }
        plan
    }

    /// Whether delivery-fault recovery is enabled.
    pub fn recovery(&self) -> bool {
        self.recover
    }

    /// The planned faults, in insertion order.
    pub fn specs(&self) -> &[FaultSpec] {
        &self.specs
    }

    /// True when the plan injects nothing.
    pub fn is_empty(&self) -> bool {
        self.specs.is_empty()
    }
}

/// The fixed-seed generator behind [`FaultPlan::random`] (Vigna's
/// SplitMix64).
struct SplitMix64(u64);

impl SplitMix64 {
    fn new(seed: u64) -> Self {
        SplitMix64(seed)
    }

    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

/// What the mesh should do with one posted batch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum BatchFault {
    /// Hold the batch for this many extra rounds.
    Delay(u64),
    /// Discard the batch.
    Drop,
    /// Post the batch twice.
    Duplicate,
}

/// One injection or recovery, reported to the trace layer by the fabric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct FaultNote {
    /// False for the injection itself, true for its recovery.
    pub recovered: bool,
    /// The targeted worker (kill/poison) or destination mailbox
    /// (delivery faults).
    pub target: u64,
}

/// The shared runtime state of one plan: per-channel batch sequence
/// counters, the current round, the note/violation logs.
#[derive(Debug)]
pub(crate) struct FaultInjector {
    kills: Vec<(usize, u64)>,
    poisons: Vec<(usize, u64)>,
    stalls: Vec<(usize, u64)>,
    batch_faults: BTreeMap<(usize, usize, u64), BatchFault>,
    recover: bool,
    round: AtomicU64,
    workers: usize,
    /// One counter per (src, dst) channel, indexed `src * workers + dst`.
    seqs: Vec<AtomicU64>,
    notes: Mutex<Vec<FaultNote>>,
    violations: Mutex<Vec<String>>,
}

impl FaultInjector {
    pub(crate) fn new(plan: &FaultPlan, workers: usize) -> Self {
        let mut kills = Vec::new();
        let mut poisons = Vec::new();
        let mut stalls = Vec::new();
        let mut batch_faults = BTreeMap::new();
        for spec in &plan.specs {
            match *spec {
                FaultSpec::KillWorker { worker, round } => kills.push((worker, round)),
                FaultSpec::PoisonLock { worker, round } => poisons.push((worker, round)),
                FaultSpec::StallWorker { worker, round } => stalls.push((worker, round)),
                FaultSpec::DelayBatch { src, dst, seq, rounds } => {
                    batch_faults.insert((src, dst, seq), BatchFault::Delay(rounds));
                }
                FaultSpec::DropBatch { src, dst, seq } => {
                    batch_faults.insert((src, dst, seq), BatchFault::Drop);
                }
                FaultSpec::DuplicateBatch { src, dst, seq } => {
                    batch_faults.insert((src, dst, seq), BatchFault::Duplicate);
                }
            }
        }
        FaultInjector {
            kills,
            poisons,
            stalls,
            batch_faults,
            recover: plan.recover,
            round: AtomicU64::new(0),
            workers,
            seqs: (0..workers * workers).map(|_| AtomicU64::new(0)).collect(),
            notes: Mutex::new(Vec::new()),
            violations: Mutex::new(Vec::new()),
        }
    }

    /// Whether delivery-fault recovery is enabled.
    pub(crate) fn recovery(&self) -> bool {
        self.recover
    }

    /// Called by every worker at the start of each round; the injector
    /// keeps the maximum (workers are barrier-aligned, so they agree).
    pub(crate) fn enter_round(&self, round: u64) {
        // relaxed: monotonic round watermark; workers are barrier-aligned
        // when they call this, so every ordering constraint is external.
        self.round.fetch_max(round, Ordering::Relaxed);
    }

    /// The current round (0 before the first).
    pub(crate) fn round(&self) -> u64 {
        // relaxed: see enter_round — the barrier orders the watermark.
        self.round.load(Ordering::Relaxed)
    }

    /// True when `worker` is scheduled to die in `round`.
    pub(crate) fn should_kill(&self, worker: usize, round: u64) -> bool {
        self.kills.iter().any(|&(w, r)| w == worker && r == round)
    }

    /// True when `worker`'s mailbox lock is scheduled to be poisoned in
    /// `round`.
    pub(crate) fn should_poison(&self, worker: usize, round: u64) -> bool {
        self.poisons.iter().any(|&(w, r)| w == worker && r == round)
    }

    /// True when `worker` is scheduled to stall (hang) in `round`.
    pub(crate) fn should_stall(&self, worker: usize, round: u64) -> bool {
        self.stalls.iter().any(|&(w, r)| w == worker && r == round)
    }

    /// Claims the next batch sequence number on channel `src -> dst`.
    /// Only `src` itself posts on its channels, so the counter stays
    /// contiguous per sender with no cross-sender serialization.
    pub(crate) fn next_seq(&self, src: usize, dst: usize) -> u64 {
        // relaxed: unique-ticket counter; only atomicity of the increment
        // matters, no payload is published through it.
        self.seqs[src * self.workers + dst].fetch_add(1, Ordering::Relaxed)
    }

    /// The fault scheduled for batch `seq` on channel `src -> dst`, if
    /// any.
    pub(crate) fn batch_fault(&self, src: usize, dst: usize, seq: u64) -> Option<BatchFault> {
        self.batch_faults.get(&(src, dst, seq)).copied()
    }

    /// Logs an injection (for the trace layer).
    pub(crate) fn note_injected(&self, target: usize) {
        lock_recover(&self.notes).push(FaultNote { recovered: false, target: target as u64 });
    }

    /// Logs a recovery (for the trace layer).
    pub(crate) fn note_recovered(&self, target: usize) {
        lock_recover(&self.notes).push(FaultNote { recovered: true, target: target as u64 });
    }

    /// Drains the pending trace notes (the round's leader emits them, as
    /// processor 0, each round).
    pub(crate) fn take_notes(&self) -> Vec<FaultNote> {
        std::mem::take(&mut *lock_recover(&self.notes))
    }

    /// Records an unrecovered delivery violation.
    pub(crate) fn violation(&self, detail: String) {
        lock_recover(&self.violations).push(detail);
    }

    /// Drains the recorded violations into one summary, or `None` when
    /// delivery is still intact.
    pub(crate) fn take_violations(&self) -> Option<String> {
        let mut v = lock_recover(&self.violations);
        if v.is_empty() {
            None
        } else {
            Some(v.drain(..).collect::<Vec<_>>().join("; "))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plans_index_into_the_injector() {
        let plan = FaultPlan::new()
            .with_kill(1, 3)
            .with_poison(0, 2)
            .with_drop(3, 2, 0)
            .with_delay(1, 0, 1, 2)
            .with_duplicate(0, 1, 5);
        assert_eq!(plan.specs().len(), 5);
        let inj = FaultInjector::new(&plan, 4);
        assert!(inj.should_kill(1, 3));
        assert!(!inj.should_kill(1, 2));
        assert!(inj.should_poison(0, 2));
        assert_eq!(inj.batch_fault(3, 2, 0), Some(BatchFault::Drop));
        assert_eq!(inj.batch_fault(1, 0, 1), Some(BatchFault::Delay(2)));
        assert_eq!(inj.batch_fault(0, 1, 5), Some(BatchFault::Duplicate));
        assert_eq!(inj.batch_fault(1, 1, 5), None, "faults are channel-addressed");
        assert_eq!(inj.batch_fault(0, 1, 4), None);
        assert_eq!(inj.next_seq(0, 2), 0);
        assert_eq!(inj.next_seq(0, 2), 1);
        assert_eq!(inj.next_seq(2, 0), 0, "each channel counts independently");
        assert_eq!(inj.next_seq(0, 0), 0);
    }

    #[test]
    fn random_plans_are_seed_deterministic() {
        let a = FaultPlan::random(0xFA11, 4, 12);
        let b = FaultPlan::random(0xFA11, 4, 12);
        assert_eq!(a, b);
        assert_eq!(a.specs().len(), 12);
        assert!(a.specs().iter().all(|s| !matches!(s, FaultSpec::KillWorker { .. })));
        let c = FaultPlan::random(0xFA12, 4, 12);
        assert_ne!(a, c, "different seeds should differ");
    }

    #[test]
    fn notes_and_violations_drain() {
        let inj = FaultInjector::new(&FaultPlan::new(), 2);
        inj.note_injected(1);
        inj.note_recovered(1);
        let notes = inj.take_notes();
        assert_eq!(notes.len(), 2);
        assert!(!notes[0].recovered);
        assert!(notes[1].recovered);
        assert!(inj.take_notes().is_empty());
        assert_eq!(inj.take_violations(), None);
        inj.violation("batch #0 to worker 1 dropped".into());
        inj.violation("batch #2 to worker 0 delayed".into());
        let summary = inj.take_violations().expect("violations recorded");
        assert!(summary.contains("dropped") && summary.contains("delayed"));
        assert_eq!(inj.take_violations(), None);
    }

    #[test]
    fn rounds_track_the_maximum() {
        let inj = FaultInjector::new(&FaultPlan::new(), 1);
        assert_eq!(inj.round(), 0);
        inj.enter_round(3);
        inj.enter_round(2);
        assert_eq!(inj.round(), 3);
    }
}
