//! Batched inter-worker message delivery over lock-free SPSC rings.
//!
//! The kernels' message pattern is bursty: one round of LP activations
//! produces a clump of events for each neighbouring worker, then everyone
//! synchronizes. A per-message channel pays one lock acquisition (and a
//! condvar notify) per event; the mailbox mesh instead accumulates each
//! destination's messages in a thread-local [`Outbox`] batch and delivers
//! the whole batch — either when the batch reaches
//! [`Outbox::batch_limit`] or at the end-of-round [`Outbox::flush`].
//!
//! Delivery itself is lock-free: the mesh holds one bounded
//! [`SpscRing`](crate::spsc) per (sender, receiver) pair, so a post is a
//! slot write plus a `Release` store of the producer's tail counter and a
//! drain is one `Acquire` snapshot of each inbound tail — no mutex, no
//! syscall, no cross-worker contention beyond the cache-coherence traffic
//! of the counters themselves. Bursts beyond
//! a ring's capacity overflow into that ring's mutexed spill vector
//! (counted, traced as `ring_spill`, never lost). The previous
//! mutex-per-mailbox transport survives as [`MutexedMesh`], the baseline
//! the repo benchmark's `runtime.mutexed_*` rows time against the ring and
//! the second implementation behind the [`Mesh`] test harness.
//!
//! Ordering guarantee: messages from worker *A* to worker *B* are observed
//! by *B* in exactly the order *A* sent them (FIFO per channel). Batches
//! preserve internal order, [`Outbox::send`] appends in call order, and
//! each (A, B) channel is a dedicated SPSC ring, so posts never reorder
//! among themselves; the ring's spill protocol (see `spsc.rs`) keeps FIFO
//! across overflow. Messages on *different* channels have no ordering
//! relation, exactly as before.
//!
//! Round delivery: [`MailboxMesh::drain_into`] takes everything published
//! so far, which under a fabric would let a late drain consume a fast
//! peer's posts of the *same* round. The fabric therefore drains through
//! the round seal instead — each worker calls [`MailboxMesh::seal_round`]
//! after its end-of-round flush, and [`MailboxMesh::drain_round_into`] in
//! round *r* takes exactly what its senders sealed in round *r − 1* — so
//! what a worker receives in a round does not depend on thread timing.
//!
//! Fault tolerance: a mesh built with [`MailboxMesh::with_faults`] carries
//! the fault-injection layer (see [`FaultPlan`](crate::FaultPlan)): each
//! posted batch passes an injection point that can drop, delay or
//! duplicate it — either recovered in place (reliable-delivery mode) or
//! recorded as a delivery violation the fabric fails fast on. Batch
//! sequence numbers are per *channel* (sender × receiver), so they stay
//! contiguous per sender without any cross-sender serialization — under
//! the old per-destination counters two lock-free senders could interleave
//! claims and recovery could mis-attribute a duplicate's sequence. The
//! injection layer's own locks (held-batch buffers) stay poison-tolerant:
//! an injected lock poisoning is recovered (and noted once) at the next
//! drain instead of cascading into peer panics.

use crate::sync::{Arc, AtomicBool, AtomicU64, Mutex, Ordering};

use crate::fault::{BatchFault, FaultInjector};
use crate::poison::lock_recover;
use crate::spsc::{Cut, SpscRing, DEFAULT_RING_CAPACITY, MAX_RING_CAPACITY};

/// Default number of messages an [`Outbox`] accumulates per destination
/// before posting the batch early. Large enough that a typical activation
/// round flushes exactly once per destination.
pub const DEFAULT_BATCH_LIMIT: usize = 256;

/// Ring capacity [`MailboxMesh::sized_for_burst`] picks for an expected
/// per-channel burst: `2 × burst` rounded up to a power of two, clamped to
/// `[`[`DEFAULT_RING_CAPACITY`]`, `[`MAX_RING_CAPACITY`]`]`.
pub fn burst_capacity(burst: usize) -> usize {
    burst
        .saturating_mul(2)
        .checked_next_power_of_two()
        .unwrap_or(MAX_RING_CAPACITY)
        .clamp(DEFAULT_RING_CAPACITY, MAX_RING_CAPACITY)
}

/// The transport contract shared by [`MailboxMesh`] (SPSC rings) and
/// [`MutexedMesh`] (the mutex-per-mailbox baseline): batched posts with
/// FIFO-per-channel ordering. One test harness and the repo benchmark's
/// mesh rows run against both implementations through this trait.
///
/// `post` requires the caller to be the *only* thread posting as `src` at
/// any instant (the fabric guarantees this: `src` is the worker's own
/// index); [`MailboxMesh`] enforces it at runtime with a mesh-misuse
/// panic.
pub trait Mesh<M>: Sync {
    /// Number of workers (mailboxes) in the mesh.
    fn workers(&self) -> usize;
    /// Posts a batch from `src` onto the (`src`, `dst`) channel, draining
    /// the batch vector (its allocation is kept for reuse).
    fn post(&self, src: usize, dst: usize, batch: &mut Vec<M>);
    /// Appends everything posted to `w` (and already published) to `into`.
    fn drain_into(&self, w: usize, into: &mut Vec<M>);
    /// True if worker `w`'s mailbox currently holds no messages.
    fn is_empty(&self, w: usize) -> bool;
}

/// A batch held back by an injected delay fault.
#[derive(Debug)]
struct HeldBatch<M> {
    /// First round the batch may be released in.
    release_round: u64,
    msgs: Vec<M>,
}

/// The injection side of a mesh: the shared injector plus per-destination
/// held-batch buffers and one-shot poison-recovery markers.
#[derive(Debug)]
struct FaultState<M> {
    injector: Arc<FaultInjector>,
    held: Vec<Mutex<Vec<HeldBatch<M>>>>,
    poison_noted: Vec<AtomicBool>,
}

/// The lock-free mesh: one SPSC ring per (sender, receiver) pair, indexed
/// sender-major.
#[derive(Debug)]
pub struct MailboxMesh<M> {
    workers: usize,
    rings: Vec<SpscRing<M>>,
    /// Total messages that overflowed a ring into its spill (mesh-wide,
    /// monotonic); surfaced per round as a `ring_spill` trace instant.
    spills: AtomicU64,
    faults: Option<FaultState<M>>,
}

impl<M> MailboxMesh<M> {
    /// A mesh with one ring per worker pair
    /// ([`DEFAULT_RING_CAPACITY`] slots each) and no fault injection.
    pub fn new(workers: usize) -> Self {
        Self::with_ring_capacity(workers, DEFAULT_RING_CAPACITY)
    }

    /// A mesh whose rings are sized for an expected per-channel burst of
    /// `burst` messages per round: capacity `2 × burst` rounded up to a
    /// power of two, clamped to `[`[`DEFAULT_RING_CAPACITY`]`,
    /// `[`MAX_RING_CAPACITY`](crate::spsc::MAX_RING_CAPACITY)`]`. The 2×
    /// headroom covers the next round's posts racing the previous round's
    /// drain. Bursts beyond the clamp still deliver losslessly through the
    /// spill path. The fabric sizes its mesh this way from the topology's
    /// cross-worker fan-out (the E15 fix: at rates ≥ the old fixed
    /// capacity, every round paid the spill mutex and lost to
    /// [`MutexedMesh`]).
    pub fn sized_for_burst(workers: usize, burst: usize) -> Self {
        Self::with_ring_capacity(workers, burst_capacity(burst))
    }

    /// A mesh with an explicit per-ring capacity (power of two ≥ 1).
    /// Small capacities force the spill path — the capacity-edge tests use
    /// this; the fabric uses [`MailboxMesh::sized_for_burst`].
    pub fn with_ring_capacity(workers: usize, capacity: usize) -> Self {
        MailboxMesh {
            workers,
            rings: (0..workers * workers).map(|_| SpscRing::new(capacity)).collect(),
            spills: AtomicU64::new(0),
            faults: None,
        }
    }

    /// A mesh with the fault-injection layer attached. With an empty plan
    /// the layer is inert: delivery is bit-identical to a plain mesh of
    /// the same `capacity`.
    pub(crate) fn with_faults(
        workers: usize,
        capacity: usize,
        injector: Arc<FaultInjector>,
    ) -> Self {
        MailboxMesh {
            faults: Some(FaultState {
                injector,
                held: (0..workers).map(|_| Mutex::new(Vec::new())).collect(),
                poison_noted: (0..workers).map(|_| AtomicBool::new(false)).collect(),
            }),
            ..Self::with_ring_capacity(workers, capacity)
        }
    }

    /// Number of mailboxes.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// The (`src` → `dst`) channel.
    fn ring(&self, src: usize, dst: usize) -> &SpscRing<M> {
        &self.rings[src * self.workers + dst]
    }

    /// Total messages that have overflowed a full ring into its spill
    /// vector since the mesh was built. Monotonic; the fabric coordinator
    /// emits per-round deltas as `ring_spill` trace instants.
    pub fn spill_events(&self) -> u64 {
        // relaxed: monotonic statistics counter, no data guarded by it.
        self.spills.load(Ordering::Relaxed)
    }

    /// Poisons worker `w`'s held-batch lock (the injection layer's only
    /// mutex), exactly as a thread panicking while holding the guard
    /// would (fault injection only; a no-op on a fault-free mesh, which
    /// has no locks left to poison). The data under the lock is
    /// untouched; the next acquisition recovers the guard and notes the
    /// recovery once.
    pub(crate) fn poison_slot(&self, w: usize) {
        let Some(f) = &self.faults else { return };
        f.injector.note_injected(w);
        let lock = &f.held[w];
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _guard = lock_recover(lock);
            panic!("injected mailbox lock poisoning");
        }));
        debug_assert!(caught.is_err(), "poisoning panic must unwind");
    }

    /// Acquires worker `w`'s held-batch buffer, recovering (and noting
    /// once) a poisoned guard instead of cascading the panic.
    fn held<'a>(f: &'a FaultState<M>, w: usize) -> crate::sync::MutexGuard<'a, Vec<HeldBatch<M>>> {
        match f.held[w].lock() {
            Ok(guard) => guard,
            Err(poisoned) => {
                // relaxed: one-shot note-once flag; the injector note it
                // gates is itself lock-protected, so no data rides on
                // this ordering.
                if !f.poison_noted[w].swap(true, Ordering::Relaxed) {
                    f.injector.note_recovered(w);
                }
                poisoned.into_inner()
            }
        }
    }

    /// Moves everything published to worker `w` into `into` (appending),
    /// preserving per-channel send order: batches whose injected delay has
    /// expired are released first (in the order they were delayed), then
    /// each inbound ring is drained in sender order up to one consistent
    /// tail snapshot per ring.
    ///
    /// # Panics
    ///
    /// Panics if `w` is out of range, or if another thread is concurrently
    /// draining `w` (mesh misuse: one consumer per mailbox).
    pub fn drain_into(&self, w: usize, into: &mut Vec<M>) {
        self.drain(w, into, Cut::Published);
    }

    /// Seals worker `src`'s outgoing channels for `round`: everything it
    /// has posted so far — and nothing it posts later — is what its peers'
    /// round-`round + 1` [`drain_round_into`](MailboxMesh::drain_round_into)
    /// takes. Call after the round's last post (the outbox flush) and
    /// before the round's synchronization point.
    pub fn seal_round(&self, src: usize, round: u64) {
        for dst in 0..self.workers {
            self.ring(src, dst).seal(round);
        }
    }

    /// Worker `w`'s drain for `round` (1-based): like
    /// [`drain_into`](MailboxMesh::drain_into), but each inbound channel
    /// stops at its sender's round-`round − 1` seal, so posts a fast peer
    /// has already made in `round` stay queued for `round + 1` however
    /// late this drain runs. Round 1 has no seal before it and delivers
    /// nothing. Requires a synchronization point between a round's seals
    /// and the next round's drains (the fabric's rendezvous).
    ///
    /// # Panics
    ///
    /// As [`drain_into`](MailboxMesh::drain_into).
    pub fn drain_round_into(&self, w: usize, round: u64, into: &mut Vec<M>) {
        self.drain(w, into, Cut::SealedIn(round - 1));
    }

    /// The one drain: expired held batches, then every inbound ring up to
    /// `cut`.
    fn drain(&self, w: usize, into: &mut Vec<M>, cut: Cut) {
        if let Some(f) = &self.faults {
            let round = f.injector.round();
            let mut held = Self::held(f, w);
            // Stable in-place partition: released batches append to `into`
            // in send order, unexpired ones keep their relative order, one
            // pass, no per-release tail shifting.
            held.retain_mut(|b| {
                if b.release_round <= round {
                    into.append(&mut b.msgs);
                    false
                } else {
                    true
                }
            });
        }
        for src in 0..self.workers {
            self.ring(src, w).drain_into(into, cut);
        }
    }

    /// True if worker `w`'s mailbox currently holds no published messages
    /// (exact only while senders are quiescent, e.g. between barriers).
    pub fn is_empty(&self, w: usize) -> bool {
        let held_empty = match &self.faults {
            Some(f) => Self::held(f, w).is_empty(),
            None => true,
        };
        held_empty && (0..self.workers).all(|src| self.ring(src, w).is_empty())
    }
}

impl<M: Clone> MailboxMesh<M> {
    /// Posts a batch from worker `src` onto the (`src`, `dst`) channel
    /// (the batch vector is drained, keeping its allocation for reuse).
    /// Under fault injection the batch first passes the injection point,
    /// which may drop, delay or duplicate it — recovered in place when the
    /// plan enables recovery, recorded as a delivery violation otherwise.
    ///
    /// # Panics
    ///
    /// Panics if `src` or `dst` is out of range, or if another thread is
    /// concurrently posting on the same channel (mesh misuse: `src` must
    /// be the calling worker's own index).
    pub fn post(&self, src: usize, dst: usize, batch: &mut Vec<M>) {
        if batch.is_empty() {
            return;
        }
        if let Some(f) = &self.faults {
            let inj = &f.injector;
            let seq = inj.next_seq(src, dst);
            if let Some(fault) = inj.batch_fault(src, dst, seq) {
                inj.note_injected(dst);
                let round = inj.round();
                let n = batch.len();
                match fault {
                    BatchFault::Drop => {
                        if inj.recovery() {
                            // The retained copy is re-delivered: fall
                            // through and deliver normally.
                            inj.note_recovered(dst);
                        } else {
                            inj.violation(format!(
                                "batch #{seq} on channel {src}->{dst} ({n} messages) dropped at \
                                 round {round}"
                            ));
                            batch.clear();
                            return;
                        }
                    }
                    BatchFault::Delay(rounds) => {
                        if inj.recovery() {
                            // Re-delivered before the barrier: logically a
                            // normal delivery.
                            inj.note_recovered(dst);
                        } else {
                            inj.violation(format!(
                                "batch #{seq} on channel {src}->{dst} ({n} messages) delayed \
                                 {rounds} round(s) at round {round}"
                            ));
                            Self::held(f, dst).push(HeldBatch {
                                release_round: round + rounds,
                                msgs: std::mem::take(batch),
                            });
                            return;
                        }
                    }
                    BatchFault::Duplicate => {
                        if inj.recovery() {
                            // The duplicate is suppressed by its sequence
                            // number: deliver exactly once.
                            inj.note_recovered(dst);
                        } else {
                            inj.violation(format!(
                                "batch #{seq} on channel {src}->{dst} ({n} messages) duplicated \
                                 at round {round}"
                            ));
                            let mut copy = batch.clone();
                            self.deliver(src, dst, &mut copy);
                        }
                    }
                }
            }
        }
        self.deliver(src, dst, batch);
    }

    /// Pushes the batch onto the channel's ring, counting any spill
    /// overflow.
    fn deliver(&self, src: usize, dst: usize, batch: &mut Vec<M>) {
        let spilled = self.ring(src, dst).push_batch(batch);
        if spilled > 0 {
            // relaxed: monotonic statistics counter, no data guarded by it.
            self.spills.fetch_add(spilled, Ordering::Relaxed);
        }
    }
}

impl<M: Clone + Send> Mesh<M> for MailboxMesh<M> {
    fn workers(&self) -> usize {
        MailboxMesh::workers(self)
    }
    fn post(&self, src: usize, dst: usize, batch: &mut Vec<M>) {
        MailboxMesh::post(self, src, dst, batch);
    }
    fn drain_into(&self, w: usize, into: &mut Vec<M>) {
        MailboxMesh::drain_into(self, w, into);
    }
    fn is_empty(&self, w: usize) -> bool {
        MailboxMesh::is_empty(self, w)
    }
}

/// The pre-ring transport: one `Mutex<Vec<M>>` mailbox per worker, one
/// lock acquisition per posted batch. Kept as the baseline the repo
/// benchmark's `runtime.mutexed_*` rows time and as the second
/// implementation behind the [`Mesh`] test harness; the fabric itself
/// always runs on [`MailboxMesh`]. No fault-injection layer.
///
/// Locks are poison-tolerant exactly as the old mesh's were: a peer that
/// panicked while posting never cascades into `expect("mailbox lock")`
/// panics here (every critical section is a plain data move with no
/// unwind point mid-update).
#[derive(Debug)]
pub struct MutexedMesh<M> {
    slots: Vec<Mutex<Vec<M>>>,
}

impl<M> MutexedMesh<M> {
    /// A mesh with one mutexed mailbox per worker.
    pub fn new(workers: usize) -> Self {
        MutexedMesh { slots: (0..workers).map(|_| Mutex::new(Vec::new())).collect() }
    }
}

impl<M: Send> Mesh<M> for MutexedMesh<M> {
    fn workers(&self) -> usize {
        self.slots.len()
    }

    fn post(&self, _src: usize, dst: usize, batch: &mut Vec<M>) {
        if batch.is_empty() {
            return;
        }
        lock_recover(&self.slots[dst]).append(batch);
    }

    fn drain_into(&self, w: usize, into: &mut Vec<M>) {
        let mut slot = lock_recover(&self.slots[w]);
        if into.is_empty() {
            // Common case: swap, no copy.
            std::mem::swap(&mut *slot, into);
        } else {
            into.append(&mut slot);
        }
    }

    fn is_empty(&self, w: usize) -> bool {
        lock_recover(&self.slots[w]).is_empty()
    }
}

/// A worker's batching send handle onto the mesh.
///
/// Not `Clone`: exactly one outbox per worker. The outbox carries its
/// worker's index as the SPSC sender identity, so the per-channel FIFO
/// guarantee (and single-producer discipline) holds.
#[derive(Debug)]
pub struct Outbox<'m, M> {
    mesh: &'m MailboxMesh<M>,
    /// The sending worker's index: selects the (src, dst) ring per post.
    src: usize,
    pending: Vec<Vec<M>>,
    batch_limit: usize,
    /// Messages handed to [`Outbox::send`] over this outbox's lifetime.
    pub sent: u64,
}

impl<'m, M> Outbox<'m, M> {
    /// Worker `src`'s outbox posting into `mesh` with the given
    /// early-flush threshold.
    ///
    /// # Panics
    ///
    /// Panics if `src` is out of range or `batch_limit` is zero.
    pub fn new(mesh: &'m MailboxMesh<M>, src: usize, batch_limit: usize) -> Self {
        assert!(batch_limit >= 1, "batch limit must be at least 1");
        assert!(src < mesh.workers(), "outbox sender index out of range");
        Outbox {
            mesh,
            src,
            pending: (0..mesh.workers()).map(|_| Vec::new()).collect(),
            batch_limit,
            sent: 0,
        }
    }

    /// True when nothing is pending (everything sent has been posted).
    pub fn is_flushed(&self) -> bool {
        self.pending.iter().all(Vec::is_empty)
    }

    /// Discards every pending (unposted) message. The fabric's abort path
    /// uses this: a worker leaving the round loop after a caught panic
    /// must neither deliver half a round's traffic nor trip the
    /// unflushed-drop check below.
    pub fn discard_pending(&mut self) {
        for batch in &mut self.pending {
            batch.clear();
        }
    }
}

impl<M: Clone> Outbox<'_, M> {
    /// Queues one message for worker `dst`, posting the batch if it reached
    /// the limit.
    ///
    /// # Panics
    ///
    /// Panics if `dst` is out of range.
    pub fn send(&mut self, dst: usize, msg: M) {
        self.sent += 1;
        let batch = &mut self.pending[dst];
        batch.push(msg);
        if batch.len() >= self.batch_limit {
            self.mesh.post(self.src, dst, batch);
        }
    }

    /// Posts every non-empty pending batch. Must be called before a
    /// synchronization point — an unflushed outbox is invisible to peers.
    pub fn flush(&mut self) {
        for (dst, batch) in self.pending.iter_mut().enumerate() {
            if !batch.is_empty() {
                self.mesh.post(self.src, dst, batch);
            }
        }
    }
}

impl<M> Drop for Outbox<'_, M> {
    fn drop(&mut self) {
        // Skip the check while unwinding: a worker that panics mid-round
        // legitimately drops an unflushed outbox before the fabric's
        // `discard_pending` cleanup runs, and a second panic here would
        // escalate one diagnosable WorkerPanic into a process abort.
        if !std::thread::panicking() {
            debug_assert!(self.is_flushed(), "outbox dropped with unflushed messages");
        }
    }
}

#[cfg(all(test, not(loom)))]
mod tests {
    use super::*;
    use crate::fault::FaultPlan;

    /// 4 senders × 1000 messages each into one mailbox; each sender's
    /// subsequence must arrive in order even though posts interleave.
    /// Runs against both transports through the [`Mesh`] trait.
    fn fifo_per_channel<Me: Mesh<(u64, u64)>>(mesh: &Me) {
        std::thread::scope(|scope| {
            for sender in 0..4u64 {
                scope.spawn(move || {
                    let mut batch = Vec::new();
                    for i in 0..1000u64 {
                        batch.push((sender, i));
                        if batch.len() >= 7 {
                            mesh.post(sender as usize, 0, &mut batch);
                        }
                    }
                    mesh.post(sender as usize, 0, &mut batch);
                });
            }
        });
        let mut got = Vec::new();
        mesh.drain_into(0, &mut got);
        assert_eq!(got.len(), 4000);
        let mut next = [0u64; 4];
        for (sender, i) in got {
            assert_eq!(i, next[sender as usize], "sender {sender} reordered");
            next[sender as usize] += 1;
        }
        assert_eq!(next, [1000; 4]);
        assert!(mesh.is_empty(0));
    }

    #[test]
    fn fifo_per_channel_under_interleaving() {
        // Tiny rings so the interleaved burst constantly wraps and spills:
        // the FIFO guarantee must survive the slow path, not avoid it.
        let mesh = MailboxMesh::with_ring_capacity(4, 8);
        fifo_per_channel(&mesh);
        assert!(mesh.spill_events() > 0, "capacity 8 under a 4000-message burst must spill");
        // And at the default capacity, where the fast path dominates.
        fifo_per_channel(&MailboxMesh::new(4));
    }

    #[test]
    fn fifo_per_channel_on_the_mutexed_baseline() {
        fifo_per_channel(&MutexedMesh::new(4));
    }

    /// The fabric's round pattern without the simulation: every worker
    /// posts to every worker (itself included), crosses a barrier, then
    /// drains while faster peers may already be posting the next round.
    /// Each message carries its sender and per-channel sequence, so every
    /// consumer checks FIFO and exactly-once as it drains. 8-slot rings:
    /// the 40-message rounds spill on every channel.
    #[test]
    fn all_to_all_rounds_deliver_fifo_exactly_once() {
        const WORKERS: usize = 4;
        const ROUNDS: u64 = 50;
        for (rate, grain) in [(3u64, 1usize), (40, 1), (40, 16)] {
            let mesh = MailboxMesh::<u64>::with_ring_capacity(WORKERS, 8);
            let barrier = crate::RoundBarrier::new(WORKERS);
            std::thread::scope(|scope| {
                for w in 0..WORKERS {
                    let (mesh, barrier) = (&mesh, &barrier);
                    scope.spawn(move || {
                        let (mut batch, mut inbox) = (Vec::new(), Vec::new());
                        let mut expect = [0u64; WORKERS];
                        for round in 0..ROUNDS {
                            for dst in 0..WORKERS {
                                for k in 0..rate {
                                    batch.push(((w as u64) << 32) | (round * rate + k));
                                    if batch.len() == grain {
                                        mesh.post(w, dst, &mut batch);
                                    }
                                }
                                mesh.post(w, dst, &mut batch);
                            }
                            barrier.wait(None).expect("test barrier");
                            mesh.drain_into(w, &mut inbox);
                            for msg in inbox.drain(..) {
                                let (src, seq) = ((msg >> 32) as usize, msg & 0xFFFF_FFFF);
                                assert_eq!(seq, expect[src], "channel {src}->{w} broke FIFO");
                                expect[src] += 1;
                            }
                        }
                        assert_eq!(expect, [rate * ROUNDS; WORKERS], "worker {w} lost messages");
                    });
                }
            });
            if rate > 8 {
                assert!(mesh.spill_events() > 0, "rate {rate} on 8-slot rings must spill");
            }
        }
    }

    #[test]
    fn ring_wraps_around_across_rounds() {
        // Capacity 4, 25 rounds × 3 messages: head/tail lap the ring many
        // times; order and exactly-once must hold at every wrap.
        let mesh = MailboxMesh::with_ring_capacity(2, 4);
        let mut outbox = Outbox::new(&mesh, 0, 3);
        let mut got = Vec::new();
        for round in 0..25u64 {
            for k in 0..3 {
                outbox.send(1, round * 3 + k);
            }
            outbox.flush();
            mesh.drain_into(1, &mut got);
        }
        assert_eq!(got, (0..75).collect::<Vec<_>>());
        assert_eq!(mesh.spill_events(), 0, "3-message rounds fit a 4-slot ring");
    }

    #[test]
    fn round_drain_delivers_each_rounds_posts_in_the_next_round_only() {
        // Tiny rings, 5-message rounds: every round's burst spills, and a
        // sender running a round ahead of the drain is never overheard.
        let mesh = MailboxMesh::with_ring_capacity(2, 2);
        let mut outbox = Outbox::new(&mesh, 0, 3);
        let mut got = Vec::new();
        for round in 1..=20u64 {
            // This round's posts are already queued when the drain runs.
            for k in 0..5 {
                outbox.send(1, round * 5 + k);
            }
            outbox.flush();
            mesh.drain_round_into(1, round, &mut got);
            let sealed: Vec<u64> =
                if round == 1 { Vec::new() } else { ((round - 1) * 5..round * 5).collect() };
            assert_eq!(got, sealed, "round {round}");
            got.clear();
            mesh.seal_round(0, round);
        }
        assert!(mesh.spill_events() > 0, "capacity 2 under 5-message rounds must spill");
        mesh.drain_into(1, &mut got);
        assert_eq!(got, (100..105).collect::<Vec<_>>(), "the last round is still queued");
    }

    #[test]
    fn burst_sizing_rounds_up_and_clamps() {
        assert_eq!(burst_capacity(0), DEFAULT_RING_CAPACITY);
        assert_eq!(burst_capacity(500), DEFAULT_RING_CAPACITY);
        assert_eq!(burst_capacity(1024), 2048);
        assert_eq!(burst_capacity(3000), 8192);
        assert_eq!(burst_capacity(usize::MAX / 2), MAX_RING_CAPACITY);
    }

    #[test]
    fn sized_mesh_absorbs_its_design_burst_without_spilling() {
        // A burst that overflows the default capacity 4× fits a
        // sized-for-burst mesh entirely on the lock-free fast path.
        let mesh: MailboxMesh<u32> = MailboxMesh::sized_for_burst(2, 4096);
        let mut out = Outbox::new(&mesh, 0, usize::MAX >> 1);
        for i in 0..4096u32 {
            out.send(1, i);
        }
        out.flush();
        assert_eq!(mesh.spill_events(), 0, "design burst must not touch the spill mutex");
        let mut got = Vec::new();
        mesh.drain_into(1, &mut got);
        assert_eq!(got.len(), 4096);
    }

    #[test]
    fn burst_beyond_ring_capacity_spills_without_loss() {
        let mesh = MailboxMesh::with_ring_capacity(2, 4);
        let mut outbox = Outbox::new(&mesh, 0, usize::MAX >> 1);
        for i in 0..50u64 {
            outbox.send(1, i);
        }
        outbox.flush();
        assert_eq!(mesh.spill_events(), 46, "4 in the ring, the rest spilled");
        let mut got = Vec::new();
        mesh.drain_into(1, &mut got);
        assert_eq!(got, (0..50).collect::<Vec<_>>(), "spilled burst arrives complete, in order");
        assert!(mesh.is_empty(1));
    }

    #[test]
    fn single_worker_self_channel_works() {
        // threads=1: the only channel is the worker's self-loop.
        let mesh = MailboxMesh::new(1);
        let mut outbox = Outbox::new(&mesh, 0, 2);
        for i in 0..5 {
            outbox.send(0, i);
        }
        outbox.flush();
        let mut got = Vec::new();
        mesh.drain_into(0, &mut got);
        assert_eq!(got, vec![0, 1, 2, 3, 4]);
        assert!(mesh.is_empty(0));
    }

    // The misuse detector is compiled out of release builds (`spsc::claim`),
    // so there is no panic to prove there.
    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "single-producer")]
    fn concurrent_posts_on_one_channel_are_a_mesh_misuse_panic() {
        // Two threads claiming the same src is the bug the busy flags
        // exist to catch; it must fail loudly, not corrupt the ring. A
        // test-only hook pins the producer side as an overlapping poster
        // would, making the race deterministic.
        let mesh: MailboxMesh<u64> = MailboxMesh::new(1);
        let _overlapping_producer = mesh.ring(0, 0).hold_producer_for_test();
        let mut batch = vec![1u64];
        mesh.post(0, 0, &mut batch);
    }

    #[test]
    fn batch_limit_posts_early() {
        let mesh = MailboxMesh::new(2);
        let mut outbox = Outbox::new(&mesh, 0, 3);
        for i in 0..3 {
            outbox.send(1, i);
        }
        // Limit reached: already visible without a flush.
        assert!(!mesh.is_empty(1));
        assert!(outbox.is_flushed());
        outbox.send(1, 3);
        assert!(!outbox.is_flushed());
        outbox.flush();
        let mut got = Vec::new();
        mesh.drain_into(1, &mut got);
        assert_eq!(got, vec![0, 1, 2, 3]);
    }

    #[test]
    fn flush_on_idle_delivers_partial_batches() {
        // A batch below the limit must still arrive once the round ends
        // (flush): nothing may linger in an idle worker's outbox.
        let mesh = MailboxMesh::new(3);
        let mut outbox = Outbox::new(&mesh, 1, usize::MAX >> 1);
        outbox.send(2, 'a');
        assert!(mesh.is_empty(2), "below the limit nothing is posted yet");
        outbox.flush();
        assert!(!mesh.is_empty(2));
        let mut got = Vec::new();
        mesh.drain_into(2, &mut got);
        assert_eq!(got, vec!['a']);
        assert_eq!(outbox.sent, 1);
    }

    #[test]
    fn drain_preserves_arrival_order_and_reuses_buffers() {
        let mesh = MailboxMesh::new(1);
        let mut a = Outbox::new(&mesh, 0, 10);
        a.send(0, 1);
        a.send(0, 2);
        a.flush();
        let mut inbox = Vec::new();
        mesh.drain_into(0, &mut inbox);
        assert_eq!(inbox, vec![1, 2]);
        inbox.clear();
        a.send(0, 3);
        a.flush();
        mesh.drain_into(0, &mut inbox);
        assert_eq!(inbox, vec![3]);
        assert!(mesh.is_empty(0));
    }

    #[test]
    fn unflushed_outbox_dropped_during_panic_does_not_double_panic() {
        // Regression: the Drop-time unflushed check must not fire while
        // unwinding — one diagnosable panic, not a debug-build abort.
        let mesh = MailboxMesh::new(1);
        let result = std::thread::scope(|scope| {
            scope
                .spawn(|| {
                    let mut outbox = Outbox::new(&mesh, 0, 64);
                    outbox.send(0, 1u32);
                    panic!("worker dies mid-round with an unflushed outbox");
                })
                .join()
        });
        let err = result.expect_err("the worker panic must surface through join");
        let msg = err.downcast_ref::<&str>().copied().unwrap_or_default();
        assert!(msg.contains("mid-round"), "original panic preserved, got: {msg}");
    }

    #[test]
    fn poisoned_mailbox_recovers_instead_of_cascading() {
        let plan = FaultPlan::new().with_poison(0, 1);
        let inj = Arc::new(FaultInjector::new(&plan, 1));
        let mesh: MailboxMesh<u32> =
            MailboxMesh::with_faults(1, DEFAULT_RING_CAPACITY, Arc::clone(&inj));
        let mut out = Outbox::new(&mesh, 0, 4);
        out.send(0, 1);
        out.flush();
        mesh.poison_slot(0);
        // Delivery continues across the poisoned guard, in order.
        out.send(0, 2);
        out.flush();
        let mut got = Vec::new();
        mesh.drain_into(0, &mut got);
        assert_eq!(got, vec![1, 2]);
        let notes = inj.take_notes();
        assert!(notes.iter().any(|n| !n.recovered), "injection noted");
        assert!(notes.iter().any(|n| n.recovered), "recovery noted");
    }

    #[test]
    fn dropped_batch_records_a_violation_without_recovery() {
        let plan = FaultPlan::new().with_drop(1, 0, 0);
        let inj = Arc::new(FaultInjector::new(&plan, 2));
        let mesh: MailboxMesh<u32> =
            MailboxMesh::with_faults(2, DEFAULT_RING_CAPACITY, Arc::clone(&inj));
        let mut out = Outbox::new(&mesh, 1, 64);
        out.send(0, 7);
        out.flush();
        assert!(mesh.is_empty(0), "the batch was dropped");
        assert!(inj.take_violations().expect("violation recorded").contains("dropped"));
        // The next batch (seq 1 on channel 1->0) is unaffected.
        out.send(0, 8);
        out.flush();
        let mut got = Vec::new();
        mesh.drain_into(0, &mut got);
        assert_eq!(got, vec![8]);
    }

    #[test]
    fn delayed_batch_is_released_after_its_rounds() {
        let plan = FaultPlan::new().with_delay(0, 0, 0, 2);
        let inj = Arc::new(FaultInjector::new(&plan, 1));
        let mesh: MailboxMesh<u32> =
            MailboxMesh::with_faults(1, DEFAULT_RING_CAPACITY, Arc::clone(&inj));
        inj.enter_round(1);
        let mut out = Outbox::new(&mesh, 0, 64);
        out.send(0, 9);
        out.flush();
        let mut got = Vec::new();
        mesh.drain_into(0, &mut got);
        assert!(got.is_empty(), "held at round 1");
        inj.enter_round(3);
        mesh.drain_into(0, &mut got);
        assert_eq!(got, vec![9], "released once the delay expired");
        assert!(inj.take_violations().is_some(), "delay is a violation without recovery");
    }

    #[test]
    fn held_batches_release_in_send_order_around_unexpired_ones() {
        // Three delayed batches with interleaved release rounds: the two
        // that expire at round 3 must come out in send order with the
        // longer delay staying held — the stable-partition fix.
        let plan = FaultPlan::new()
            .with_delay(0, 0, 0, 2) // sent round 1, releases round 3
            .with_delay(0, 0, 1, 9) // sent round 1, releases round 10
            .with_delay(0, 0, 2, 2); // sent round 1, releases round 3
        let inj = Arc::new(FaultInjector::new(&plan, 1));
        let mesh: MailboxMesh<u32> =
            MailboxMesh::with_faults(1, DEFAULT_RING_CAPACITY, Arc::clone(&inj));
        inj.enter_round(1);
        let mut out = Outbox::new(&mesh, 0, 64);
        for v in [10, 20, 30] {
            out.send(0, v);
            out.flush();
        }
        let mut got = Vec::new();
        inj.enter_round(3);
        mesh.drain_into(0, &mut got);
        assert_eq!(got, vec![10, 30], "expired batches release in send order");
        got.clear();
        inj.enter_round(10);
        mesh.drain_into(0, &mut got);
        assert_eq!(got, vec![20], "the long delay releases later, alone");
        let _ = inj.take_violations();
    }

    #[test]
    fn duplicate_batch_is_delivered_twice_without_recovery() {
        let plan = FaultPlan::new().with_duplicate(0, 1, 0);
        let inj = Arc::new(FaultInjector::new(&plan, 2));
        let mesh: MailboxMesh<u32> =
            MailboxMesh::with_faults(2, DEFAULT_RING_CAPACITY, Arc::clone(&inj));
        let mut out = Outbox::new(&mesh, 0, 64);
        out.send(1, 5);
        out.send(1, 6);
        out.flush();
        let mut got = Vec::new();
        mesh.drain_into(1, &mut got);
        assert_eq!(got, vec![5, 6, 5, 6]);
        assert!(inj.take_violations().expect("violation recorded").contains("duplicated"));
    }

    #[test]
    fn recovery_makes_every_delivery_fault_invisible() {
        let plan = FaultPlan::new()
            .with_drop(0, 0, 0)
            .with_delay(0, 0, 1, 3)
            .with_duplicate(0, 0, 2)
            .with_recovery(true);
        let inj = Arc::new(FaultInjector::new(&plan, 1));
        let mesh: MailboxMesh<u32> =
            MailboxMesh::with_faults(1, DEFAULT_RING_CAPACITY, Arc::clone(&inj));
        let mut out = Outbox::new(&mesh, 0, 64);
        for v in [10, 20, 30, 40] {
            out.send(0, v);
            out.flush();
        }
        let mut got = Vec::new();
        mesh.drain_into(0, &mut got);
        assert_eq!(got, vec![10, 20, 30, 40], "recovered delivery is exactly-once, in order");
        assert_eq!(inj.take_violations(), None);
        let notes = inj.take_notes();
        assert_eq!(notes.iter().filter(|n| !n.recovered).count(), 3);
        assert_eq!(notes.iter().filter(|n| n.recovered).count(), 3);
    }

    #[test]
    fn per_channel_seqs_stay_contiguous_per_sender() {
        // Two senders posting to one destination: a fault targeting
        // channel (1, 0) seq 1 must hit sender 1's *second* batch no
        // matter how sender 0's posts interleave — the per-channel counter
        // fix. With per-destination counters sender 0's posts would have
        // consumed seqs and shifted the target.
        let plan = FaultPlan::new().with_drop(1, 0, 1);
        let inj = Arc::new(FaultInjector::new(&plan, 2));
        let mesh: MailboxMesh<u32> =
            MailboxMesh::with_faults(2, DEFAULT_RING_CAPACITY, Arc::clone(&inj));
        let mut a = Outbox::new(&mesh, 0, 64);
        let mut b = Outbox::new(&mesh, 1, 64);
        // Interleave: a, b, a, b — under per-dst counters these would
        // claim seqs 0..4 in arrival order.
        a.send(0, 100);
        a.flush();
        b.send(0, 200);
        b.flush();
        a.send(0, 101);
        a.flush();
        b.send(0, 201);
        b.flush();
        let mut got = Vec::new();
        mesh.drain_into(0, &mut got);
        // Drains visit inbound rings sender-major (no cross-channel order
        // guarantee): sender 0's channel first, then sender 1's minus the
        // dropped batch.
        assert_eq!(got, vec![100, 101, 200], "exactly sender 1's second batch was dropped");
        assert!(inj.take_violations().expect("violation").contains("channel 1->0"));
    }
}
