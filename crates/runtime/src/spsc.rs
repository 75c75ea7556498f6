//! Bounded single-producer/single-consumer rings: the lock-free transport
//! under [`MailboxMesh`](crate::mailbox::MailboxMesh).
//!
//! One [`SpscRing`] carries one (sender → receiver) channel. The producer
//! owns `tail`, the consumer owns `head`; both are monotonically
//! increasing `u64` positions (never wrapped — the slot index is
//! `pos & mask`, so capacity must be a power of two) on their own cache
//! lines so the two sides never false-share. A bounded ring can fill; to
//! keep the no-message-ever-lost guarantee, overflow goes to a mutexed
//! spill `Vec` — the slow path that makes the fast path safe to bound.
//!
//! # Ordering protocol
//!
//! - **Publish**: the producer writes the slot, then `tail.store(Release)`.
//!   The consumer's `tail.load(Acquire)` therefore happens-after the slot
//!   write for every position below the loaded value: one snapshot per
//!   drain, so a drain observes a consistent prefix of the channel even
//!   while the producer keeps pushing.
//! - **Seal**: the fabric's *round cut*. After its last push of round
//!   `r` the producer stores the channel's message count (`tail` plus
//!   everything ever spilled) into `seals[r & 1]` (`Release`), then
//!   arrives at the round rendezvous. The consumer's round-`r + 1` drain
//!   loads that slot (`Acquire`, so every sealed push happens-before it),
//!   subtracts what it has consumed (`head` plus everything ever taken
//!   from the spill) and takes exactly that many messages — whatever the
//!   producer has pushed since stays for round `r + 2`. Two slots
//!   suffice: the producer overwrites `seals[r & 1]` next at its round
//!   `r + 2` seal, which is after rendezvous `r + 1`, which the consumer
//!   reaches only after its round-`r + 1` drain. The seal is a count, not
//!   a position, because the cut may fall inside the spill.
//! - **Free**: the consumer takes the slots, then `head.store(Release)`;
//!   the producer's `head.load(Acquire)` happens-after the takes, so a
//!   slot is never overwritten while the consumer may still read it.
//! - **Spill FIFO**: a message enters the ring only while the spill is
//!   empty. The producer checks `spill_pending` (`Acquire`) once per
//!   batch; non-zero forces the slow path, which re-checks emptiness
//!   *under the spill lock*. So once a message spills, every younger
//!   message also spills until the consumer empties the spill — at any
//!   instant the spill holds a strictly-younger suffix of the channel.
//!   The consumer exploits exactly that: when it finds the spill
//!   non-empty (under the lock), it first pops the ring to a *fresh*
//!   `tail` snapshot — its original cut may predate the spill, and ring
//!   entries past it are still older than the spill; the producer cannot
//!   ring-push in between because the sole producer already observed its
//!   own spill — then takes the spill (all of it, or the front of it
//!   when a seal cuts inside) and republishes `spill_pending` (`Release`)
//!   under the same lock. Ring-order then spill-order is exactly send
//!   order, preserving per-channel FIFO (model-checked:
//!   `ring_spill_is_exactly_once_and_fifo_under_race`,
//!   `seal_inside_the_spill_keeps_fifo_and_exactly_once`).
//! - The only `Relaxed` loads are each side's load of its *own* counter,
//!   which no other thread writes.
//!
//! Both sides' exclusivity is enforced with `busy` flags in debug, test
//! and loom builds (a mesh-misuse panic, not UB; release builds elide the
//! check — ownership there rests on the fabric pinning each channel side
//! to one worker thread), and the whole protocol — FIFO, exactly-once,
//! wrap-around, spill interleaving — is model-checked in
//! `tests/loom_models.rs` via the [`crate::sync`] facade.

// The one audited exception to the crate-level `deny(unsafe_code)`: raw
// slot access inside `UnsafeCell` closures, justified per-site below and
// exercised under loom in CI.
#![allow(unsafe_code)]

use std::mem::MaybeUninit;

use crate::poison::lock_recover;
use crate::sync::cell::UnsafeCell;
use crate::sync::{AtomicBool, AtomicU64, Mutex, Ordering};

/// Default per-channel ring capacity (slots). Sized so a default
/// [`Outbox`](crate::mailbox::Outbox) batch
/// ([`DEFAULT_BATCH_LIMIT`](crate::mailbox::DEFAULT_BATCH_LIMIT) = 256)
/// fits several times over; bursts beyond it spill, they are not lost.
/// Memory grows as `workers² × capacity`, which is why this is bounded
/// rather than sized for the worst burst.
pub const DEFAULT_RING_CAPACITY: usize = 1024;

/// Upper bound on a burst-sized ring
/// ([`MailboxMesh::sized_for_burst`](crate::mailbox::MailboxMesh::sized_for_burst)):
/// memory grows as `workers² × capacity`, so sizing is clamped here and
/// anything beyond it takes the lossless spill path instead.
pub const MAX_RING_CAPACITY: usize = 1 << 15;

/// Pads (and aligns) a value to a cache line so the producer-owned and
/// consumer-owned counters never share one.
#[repr(align(64))]
#[derive(Debug, Default)]
struct CachePadded<T>(T);

/// The words the producer publishes through, sharing one cache line: the
/// consumer's sealed drain reads a seal and then `tail`, one miss for both.
#[repr(align(64))]
#[derive(Debug, Default)]
struct ProducerSide {
    /// Next position the producer will fill.
    tail: AtomicU64,
    /// Round seals, indexed by round parity: the channel's message count
    /// when the producer finished that round (module docs, **Seal**).
    seals: [AtomicU64; 2],
}

/// How far a drain reads into the channel.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Cut {
    /// Everything published so far.
    Published,
    /// Exactly the messages the producer had sent when it sealed the given
    /// round, minus what earlier drains took.
    SealedIn(u64),
}

/// A bounded SPSC ring with a mutexed spill for overflow. See the module
/// docs for the ordering protocol.
#[derive(Debug)]
pub(crate) struct SpscRing<M> {
    /// Next position the consumer will take. Written only by the consumer.
    head: CachePadded<AtomicU64>,
    /// `tail` and the round seals. Written only by the producer.
    producer: ProducerSide,
    /// `capacity - 1`; capacity is a power of two.
    mask: u64,
    /// Slot `pos & mask` is initialized exactly when
    /// `head <= pos < tail` (for the owning side's view of those
    /// counters): vacancy is tracked by the positions, not by an
    /// `Option` tag, so a slot move is exactly `size_of::<M>()` bytes.
    slots: Box<[UnsafeCell<MaybeUninit<M>>]>,
    /// Overflow that did not fit in the ring, in send order.
    spill: Mutex<Vec<M>>,
    /// Number of spilled messages awaiting drain; maintained under the
    /// spill lock, read lock-free by the producer fast path.
    spill_pending: AtomicU64,
    /// Messages ever spilled (producer-owned) and ever taken back out of
    /// the spill (consumer-owned): with `tail` and `head` they count the
    /// channel's messages sent and consumed, which is what a seal cuts.
    spilled: AtomicU64,
    unspilled: AtomicU64,
    /// Runtime single-producer / single-consumer enforcement.
    producer_busy: AtomicBool,
    consumer_busy: AtomicBool,
}

// SAFETY: slot contents are only touched through the publish/free protocol
// in the module docs — each position is accessed mutably by exactly one
// side at a time, with the hand-over ordered by the Release/Acquire pair
// on `tail` (producer→consumer) and `head` (consumer→producer). The
// remaining fields are atomics and a mutex, which synchronize themselves.
unsafe impl<M: Send> Send for SpscRing<M> {}
unsafe impl<M: Send> Sync for SpscRing<M> {}

/// RAII release of a `busy` flag claimed by [`claim`].
///
/// The claim is a *misuse detector*, not synchronization the protocol
/// depends on (channel ownership is pinned to one worker thread per side
/// by the fabric), so the two RMWs it costs per operation are paid only
/// in debug, test and loom builds; release builds compile it away.
struct Claim<'a>(#[allow(dead_code)] &'a AtomicBool);

impl Drop for Claim<'_> {
    fn drop(&mut self) {
        #[cfg(any(debug_assertions, loom))]
        self.0.store(false, Ordering::Release);
    }
}

fn claim<'a>(flag: &'a AtomicBool, role: &str) -> Claim<'a> {
    #[cfg(any(debug_assertions, loom))]
    assert!(
        !flag.swap(true, Ordering::Acquire),
        "two concurrent {role}s on one SPSC ring: MailboxMesh channels are \
         single-producer single-consumer per (src, dst) pair"
    );
    #[cfg(not(any(debug_assertions, loom)))]
    let _ = role;
    Claim(flag)
}

impl<M> SpscRing<M> {
    /// Creates a ring with `capacity` slots (must be a power of two ≥ 1).
    pub(crate) fn new(capacity: usize) -> Self {
        assert!(capacity.is_power_of_two(), "ring capacity must be a power of two");
        let slots = (0..capacity).map(|_| UnsafeCell::new(MaybeUninit::uninit())).collect();
        Self {
            head: CachePadded::default(),
            producer: ProducerSide::default(),
            mask: capacity as u64 - 1,
            slots,
            spill: Mutex::new(Vec::new()),
            spill_pending: AtomicU64::new(0),
            spilled: AtomicU64::new(0),
            unspilled: AtomicU64::new(0),
            producer_busy: AtomicBool::new(false),
            consumer_busy: AtomicBool::new(false),
        }
    }

    fn capacity(&self) -> u64 {
        self.mask + 1
    }

    /// Writes `msg` at `pos` (producer side).
    #[cfg(loom)]
    fn slot_write(&self, pos: u64, msg: M) {
        self.slots[(pos & self.mask) as usize].with_mut(|p| {
            // SAFETY: `pos` lies in the producer-owned region
            // `[tail, head + capacity)`: the consumer only touches
            // positions below the `tail` value it Acquire-loaded, which is
            // ≤ the current (unpublished) `pos`, so no other reference to
            // this slot exists. The slot is vacant (its previous occupant
            // was moved out before `head` passed it), so plain
            // `MaybeUninit::write` leaks nothing live.
            unsafe { (*p).write(msg) };
        });
    }

    /// Raw pointer to slot `idx`'s payload, for the bulk copies below.
    /// Layout-sound via the `repr(transparent)` chain
    /// `sync::cell::UnsafeCell<T>` → `std::cell::UnsafeCell<T>` →
    /// `MaybeUninit<M>` → `M`; going through `UnsafeCell::raw_get` keeps
    /// the write-through-shared-reference aliasing-legal.
    #[cfg(not(loom))]
    fn slot_ptr(&self, idx: usize) -> *mut M {
        let cells = self.slots.as_ptr();
        // SAFETY: `idx < capacity` at every call site, so `cells.add(idx)`
        // stays in bounds of the slot array.
        unsafe {
            std::cell::UnsafeCell::raw_get(
                cells.add(idx).cast::<std::cell::UnsafeCell<MaybeUninit<M>>>(),
            )
            .cast::<M>()
        }
    }

    /// Moves `batch[..n]` into ring positions `[tail, tail + n)`, in order,
    /// leaving `batch` holding the remaining suffix. Producer side; the
    /// caller publishes with its own `tail` Release store.
    ///
    /// Under loom this is the per-slot closure walk (every access a
    /// scheduling point); under std it is at most two `memcpy`s (the wrap
    /// split), which is what keeps the batched fast path at parity with
    /// the mutexed mesh's single `Vec::append`.
    #[cfg(loom)]
    fn slot_write_chunk(&self, mut tail: u64, batch: &mut Vec<M>, n: usize) {
        for msg in batch.drain(..n) {
            self.slot_write(tail, msg);
            tail = tail.wrapping_add(1);
        }
    }

    #[cfg(not(loom))]
    fn slot_write_chunk(&self, tail: u64, batch: &mut Vec<M>, n: usize) {
        let cap = self.capacity() as usize;
        let start = (tail & self.mask) as usize;
        let first = n.min(cap - start);
        // SAFETY: the caller bounds `n` by the free space against a fresh
        // Acquire-loaded `head`, so `[tail, tail + n)` lies entirely in
        // the producer-owned vacant region (same argument as
        // `slot_write`); `n ≤ capacity` so the two copy ranges are in
        // bounds and disjoint. The copied prefix of `batch` is then
        // removed *without dropping* (plain `copy` + `set_len`), so each
        // message is moved exactly once — no double drop, no leak.
        unsafe {
            let src = batch.as_ptr();
            std::ptr::copy_nonoverlapping(src, self.slot_ptr(start), first);
            std::ptr::copy_nonoverlapping(src.add(first), self.slot_ptr(0), n - first);
            let rest = batch.len() - n;
            std::ptr::copy(src.add(n), batch.as_mut_ptr(), rest);
            batch.set_len(rest);
        }
    }

    /// Takes the message at `pos` (consumer side), leaving the slot
    /// logically vacant.
    fn slot_take(&self, pos: u64) -> M {
        self.slots[(pos & self.mask) as usize].with_mut(|p| {
            // SAFETY: `pos` lies in `[head, cut)` where `cut` was
            // Acquire-loaded from `tail`: the producer's initializing
            // write happens-before that load, and the producer will not
            // reuse the slot until it Acquire-observes the consumer's
            // later Release store of `head`, so this side holds the only
            // reference and reads an initialized value exactly once.
            unsafe { (*p).assume_init_read() }
        })
    }

    /// Pushes every message of `batch` in order.
    /// Messages that do not fit in the ring go to the spill (never lost);
    /// returns how many spilled. Panics if a second producer is active.
    ///
    /// The ring protocol is paid per *chunk*, not per message: one `head`
    /// load and one `tail` publish cover every slot written in between, so
    /// a batch of N messages costs O(1) atomics plus N plain slot writes —
    /// that amortization is what lets the lock-free path beat a
    /// one-lock-per-batch mutex.
    pub(crate) fn push_batch(&self, batch: &mut Vec<M>) -> u64 {
        let _claim = claim(&self.producer_busy, "producer");
        // relaxed: `tail` is written only by this (sole) producer.
        let mut tail = self.producer.tail.load(Ordering::Relaxed);
        // May this batch use the ring at all? Once anything spills, FIFO
        // forbids newer messages overtaking it. The lock-free check is
        // stable when it reads 0 — only this producer makes the spill
        // non-empty. When it reads non-zero, re-check under the lock: the
        // consumer may have drained the spill since. A still-pending spill
        // keeps the guard, so the append below reuses this acquisition —
        // one lock per posted batch on the slow path, not two (with
        // unbatched grain-1 posts the second acquisition made the spill
        // path strictly worse than the mutexed mesh it replaced).
        let mut spill_guard = None;
        let mut can_ring = self.spill_pending.load(Ordering::Acquire) == 0;
        if !can_ring {
            let spill = lock_recover(&self.spill);
            if spill.is_empty() {
                self.spill_pending.store(0, Ordering::Release);
                can_ring = true;
            } else {
                spill_guard = Some(spill);
            }
        }
        if can_ring {
            while !batch.is_empty() {
                let head = self.head.0.load(Ordering::Acquire);
                let free = self.capacity() - tail.wrapping_sub(head);
                if free == 0 {
                    // Full against a fresh `head`: the rest spills.
                    break;
                }
                let n = (free as usize).min(batch.len());
                self.slot_write_chunk(tail, batch, n);
                tail = tail.wrapping_add(n as u64);
                // One Release publishes the whole chunk: a racing drain
                // sees chunk-granular prefixes, never a torn chunk.
                self.producer.tail.store(tail, Ordering::Release);
            }
        }
        let spilled = batch.len() as u64;
        if spilled > 0 {
            let mut spill = spill_guard.unwrap_or_else(|| lock_recover(&self.spill));
            spill.append(batch);
            self.spill_pending.store(spill.len() as u64, Ordering::Release);
            // relaxed: `spilled` is read only by this (sole) producer.
            self.spilled.fetch_add(spilled, Ordering::Relaxed);
        }
        spilled
    }

    /// Seals `round`: records how many messages this channel has carried
    /// so far, for the consumer's round-`round + 1` drain to stop at.
    /// Producer side, after the round's last push and before the round
    /// rendezvous (module docs, **Seal**).
    pub(crate) fn seal(&self, round: u64) {
        // relaxed: both counters are written only by this (sole) producer.
        let sent =
            self.producer.tail.load(Ordering::Relaxed) + self.spilled.load(Ordering::Relaxed);
        self.producer.seals[(round & 1) as usize].store(sent, Ordering::Release);
    }

    /// Pops ring slots `[*pos, cut)` into `into`, advancing `*pos`.
    /// Consumer side; the caller frees the slots with its own `head`
    /// Release store. Bulk-copied under std (the drain-side twin of
    /// `slot_write_chunk`), per-slot under loom.
    #[cfg(loom)]
    fn pop_to(&self, into: &mut Vec<M>, pos: &mut u64, cut: u64) {
        into.reserve(cut.wrapping_sub(*pos) as usize);
        while *pos != cut {
            into.push(self.slot_take(*pos));
            *pos = pos.wrapping_add(1);
        }
    }

    #[cfg(not(loom))]
    fn pop_to(&self, into: &mut Vec<M>, pos: &mut u64, cut: u64) {
        let n = cut.wrapping_sub(*pos) as usize;
        if n == 0 {
            return;
        }
        into.reserve(n);
        let cap = self.capacity() as usize;
        let start = (*pos & self.mask) as usize;
        let first = n.min(cap - start);
        // SAFETY: `cut` was Acquire-loaded from `tail`, so every slot in
        // `[*pos, cut)` is initialized and producer-untouched until this
        // side's later `head` Release (same argument as `slot_take`);
        // `n ≤ capacity` keeps both copy ranges in bounds. The copies move
        // each message exactly once into `into`'s reserved spare capacity,
        // and `set_len` claims them — the ring slots become logically
        // vacant, never read again before being overwritten.
        unsafe {
            let dst = into.as_mut_ptr().add(into.len());
            std::ptr::copy_nonoverlapping(self.slot_ptr(start).cast_const(), dst, first);
            std::ptr::copy_nonoverlapping(self.slot_ptr(0).cast_const(), dst.add(first), n - first);
            into.set_len(into.len() + n);
        }
        *pos = cut;
    }

    /// Pops up to `*left` ring slots from `*pos` towards `cut`, charging
    /// them to `*left`.
    fn pop_some(&self, into: &mut Vec<M>, pos: &mut u64, cut: u64, left: &mut u64) {
        let take = cut.wrapping_sub(*pos).min(*left);
        self.pop_to(into, pos, pos.wrapping_add(take));
        *left -= take;
    }

    /// Appends the channel's messages up to `cut` to `into`, in send order:
    /// the ring prefix up to one `tail` snapshot, then — if anything
    /// spilled — the remainder of the ring and the spill. A sealed cut
    /// stops after exactly the sealed count, wherever that falls (ring or
    /// spill), and leaves the rest in place. Panics if a second consumer
    /// is active.
    pub(crate) fn drain_into(&self, into: &mut Vec<M>, cut: Cut) {
        let _claim = claim(&self.consumer_busy, "consumer");
        // relaxed: `head` and `unspilled` are written only by this (sole)
        // consumer.
        let start = self.head.0.load(Ordering::Relaxed);
        let taken = self.unspilled.load(Ordering::Relaxed);
        // The seal is loaded before `tail`, so the snapshot below covers
        // every sealed ring push. A `Published` drain that ran ahead of
        // the seal leaves nothing to take (saturating).
        let mut left = match cut {
            Cut::Published => u64::MAX,
            Cut::SealedIn(round) => self.producer.seals[(round & 1) as usize]
                .load(Ordering::Acquire)
                .saturating_sub(start.wrapping_add(taken)),
        };
        let snapshot = self.producer.tail.load(Ordering::Acquire);
        let mut pos = start;
        self.pop_some(into, &mut pos, snapshot, &mut left);
        if left > 0 && self.spill_pending.load(Ordering::Acquire) != 0 {
            let mut spill = lock_recover(&self.spill);
            if !spill.is_empty() {
                // FIFO across the boundary: while the spill is non-empty
                // every producer push goes to the spill (the fast path
                // re-checks `spill_pending`, the slow path holds this
                // lock), so every ring entry — including ones published
                // *after* our snapshot — is older than every spilled
                // message. Pop the ring to a fresh snapshot before taking
                // the spill; the producer cannot ring-push in between.
                let fresh = self.producer.tail.load(Ordering::Acquire);
                self.pop_some(into, &mut pos, fresh, &mut left);
                // A seal that cuts inside the spill leaves the rest: it
                // keeps the spill non-empty, so younger pushes keep
                // queueing behind it.
                let n = left.min(spill.len() as u64) as usize;
                into.extend(spill.drain(..n));
                // relaxed: consumer-owned, as above.
                self.unspilled.store(taken + n as u64, Ordering::Relaxed);
            }
            self.spill_pending.store(spill.len() as u64, Ordering::Release);
        }
        if pos != start {
            self.head.0.store(pos, Ordering::Release);
        }
    }

    /// Claims the producer side and holds it for the guard's lifetime, as
    /// an overlapping poster would — deterministic misuse for the
    /// mesh-misuse-panic test.
    #[cfg(all(test, debug_assertions, not(loom)))]
    pub(crate) fn hold_producer_for_test(&self) -> impl Drop + '_ {
        claim(&self.producer_busy, "producer")
    }

    /// True when nothing is published and nothing is spilled. Exact only
    /// while the producer is quiescent (e.g. between fabric barriers).
    pub(crate) fn is_empty(&self) -> bool {
        self.head.0.load(Ordering::Acquire) == self.producer.tail.load(Ordering::Acquire)
            && self.spill_pending.load(Ordering::Acquire) == 0
    }
}

impl<M> Drop for SpscRing<M> {
    /// Drops undrained in-flight messages: with `MaybeUninit` slots the
    /// occupied range `[head, tail)` is not dropped by the slot array
    /// itself. `&mut self` proves both sides are quiescent, so plain
    /// loads suffice. (The spill is a `Vec` and drops itself.)
    fn drop(&mut self) {
        let tail = self.producer.tail.load(Ordering::Acquire);
        let mut pos = self.head.0.load(Ordering::Acquire);
        while pos != tail {
            drop(self.slot_take(pos));
            pos = pos.wrapping_add(1);
        }
    }
}

#[cfg(all(test, not(loom)))]
mod tests {
    use super::*;

    #[test]
    fn wraps_around_many_times_with_tiny_capacity() {
        let ring = SpscRing::new(2);
        let mut batch = Vec::new();
        let mut out = Vec::new();
        for i in 0u64..100 {
            batch.push(i);
            ring.push_batch(&mut batch);
            if i % 2 == 1 {
                ring.drain_into(&mut out, Cut::Published);
            }
        }
        ring.drain_into(&mut out, Cut::Published);
        assert_eq!(out, (0..100).collect::<Vec<_>>());
        assert!(ring.is_empty());
    }

    #[test]
    fn burst_beyond_capacity_spills_and_preserves_order() {
        let ring = SpscRing::new(4);
        let mut batch: Vec<u64> = (0..11).collect();
        let spilled = ring.push_batch(&mut batch);
        assert_eq!(spilled, 7, "4 in the ring, 7 in the spill");
        assert!(!ring.is_empty());
        // FIFO: nothing may ring-enter past a non-empty spill.
        let mut batch2: Vec<u64> = vec![11, 12];
        assert_eq!(ring.push_batch(&mut batch2), 2);
        let mut out = Vec::new();
        ring.drain_into(&mut out, Cut::Published);
        assert_eq!(out, (0..13).collect::<Vec<_>>());
        assert!(ring.is_empty());
    }

    #[test]
    fn spill_then_ring_reentry_after_drain_keeps_fifo() {
        let ring = SpscRing::new(2);
        let mut b: Vec<u64> = vec![0, 1, 2];
        ring.push_batch(&mut b);
        let mut out = Vec::new();
        ring.drain_into(&mut out, Cut::Published);
        // Spill drained: the fast path is legal again.
        let mut b2: Vec<u64> = vec![3, 4];
        assert_eq!(ring.push_batch(&mut b2), 0);
        ring.drain_into(&mut out, Cut::Published);
        assert_eq!(out, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn sealed_drain_stops_at_the_seal_in_the_ring_and_inside_the_spill() {
        let ring = SpscRing::new(4);
        let mut out = Vec::new();
        ring.drain_into(&mut out, Cut::SealedIn(0));
        assert!(out.is_empty(), "nothing is sealed before round 1");

        // Round 1: the cut falls inside the ring.
        let mut b: Vec<u64> = vec![0, 1];
        ring.push_batch(&mut b);
        ring.seal(1);
        b.push(2);
        ring.push_batch(&mut b);
        ring.drain_into(&mut out, Cut::SealedIn(1));
        assert_eq!(out, vec![0, 1]);

        // Round 2: 2 is still queued, 3..=5 fill the ring, 6..=8 spill; the
        // seal covers 2..=6, so the cut falls inside the spill.
        b.extend(3..=6);
        assert_eq!(ring.push_batch(&mut b), 1);
        ring.seal(2);
        b.extend(7..=8);
        assert_eq!(ring.push_batch(&mut b), 2, "behind a pending spill everything spills");
        ring.drain_into(&mut out, Cut::SealedIn(2));
        assert_eq!(out, (0..=6).collect::<Vec<_>>());
        assert!(!ring.is_empty(), "7 and 8 stay in the spill");

        // Round 3: a post behind the remaining spill keeps FIFO; then the
        // spill empties and the ring is legal again.
        b.push(9);
        assert_eq!(ring.push_batch(&mut b), 1);
        ring.seal(3);
        ring.drain_into(&mut out, Cut::SealedIn(3));
        assert_eq!(out, (0..=9).collect::<Vec<_>>());
        assert!(ring.is_empty());
        b.push(10);
        assert_eq!(ring.push_batch(&mut b), 0);
        ring.seal(4);
        ring.drain_into(&mut out, Cut::SealedIn(4));
        assert_eq!(out, (0..=10).collect::<Vec<_>>());
    }

    #[test]
    fn published_drain_past_a_seal_leaves_the_sealed_drain_nothing() {
        let ring = SpscRing::new(2);
        let mut b: Vec<u64> = vec![0, 1, 2];
        ring.push_batch(&mut b);
        ring.seal(1);
        b.push(3);
        ring.push_batch(&mut b);
        let mut out = Vec::new();
        ring.drain_into(&mut out, Cut::Published);
        assert_eq!(out, vec![0, 1, 2, 3]);
        ring.drain_into(&mut out, Cut::SealedIn(1));
        assert_eq!(out.len(), 4, "already consumed past the seal: nothing twice");
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn rejects_non_power_of_two_capacity() {
        let _ = SpscRing::<u64>::new(3);
    }
}
