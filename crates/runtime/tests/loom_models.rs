//! Loom models for the fabric's core synchronization invariants.
//!
//! Compiled only under `RUSTFLAGS="--cfg loom"` (the loom CI job):
//!
//! ```sh
//! RUSTFLAGS="--cfg loom" cargo test -p parsim-runtime --test loom_models
//! ```
//!
//! Each model is explored exhaustively within the configured preemption
//! bound: every schedule-distinguishable interleaving of its
//! synchronization operations is executed, and a lost wakeup, double
//! release, torn read or deadlock in *any* of them fails the test with
//! the offending schedule. These are the invariants the fabric's failure
//! model (PR 5) established by argument; here they are established by
//! search.
#![cfg(loom)]

use parsim_runtime::sync::{Arc, AtomicUsize, Mutex, Ordering};
use parsim_runtime::{lock_recover, BarrierError, MailboxMesh, Outbox, RoundBarrier};

/// RoundBarrier completion: with every participant arriving, every wait
/// returns and exactly one participant per generation is the leader — in
/// every interleaving of arrivals.
#[test]
fn barrier_release_is_exactly_once() {
    loom::model(|| {
        let barrier = Arc::new(RoundBarrier::new(2));
        let leaders = Arc::new(AtomicUsize::new(0));
        let (b2, l2) = (Arc::clone(&barrier), Arc::clone(&leaders));
        let peer = loom::thread::spawn(move || {
            if b2.wait(None).expect("barrier completes") {
                l2.fetch_add(1, Ordering::SeqCst);
            }
        });
        if barrier.wait(None).expect("barrier completes") {
            leaders.fetch_add(1, Ordering::SeqCst);
        }
        peer.join().expect("no panic");
        // Exactly one release: one leader, and (since both waits returned)
        // no lost wakeup — a lost wakeup would deadlock the model instead.
        assert_eq!(leaders.load(Ordering::SeqCst), 1);
    });
}

/// RoundBarrier abort: an abort racing two blocked waiters releases both
/// exactly once (each observes `Aborted` and returns), and every future
/// wait fails fast instead of blocking on a set that can never complete.
#[test]
fn barrier_abort_releases_all_waiters() {
    loom::model(|| {
        // 3 participants, only 2 ever arrive: without the abort this set
        // can never complete, so a lost abort wakeup is a model deadlock.
        let barrier = Arc::new(RoundBarrier::new(3));
        let b1 = Arc::clone(&barrier);
        let b2 = Arc::clone(&barrier);
        let w1 = loom::thread::spawn(move || b1.wait(None));
        let w2 = loom::thread::spawn(move || b2.wait(None));
        barrier.abort();
        assert_eq!(w1.join().expect("no panic"), Err(BarrierError::Aborted));
        assert_eq!(w2.join().expect("no panic"), Err(BarrierError::Aborted));
        // Double-release safety: a second abort is idempotent and a late
        // arrival fails immediately rather than waiting.
        barrier.abort();
        assert_eq!(barrier.wait(None), Err(BarrierError::Aborted));
    });
}

/// The fabric's panic→abort path: a worker that panics mid-round (caught
/// at the round boundary, exactly as `worker_loop` does) aborts the
/// barrier, and a peer already blocked in `wait` is released with
/// `Aborted` in every interleaving — the no-hung-peer guarantee.
#[test]
fn barrier_abort_after_worker_panic_releases_peer() {
    loom::model(|| {
        let barrier = Arc::new(RoundBarrier::new(2));
        let b2 = Arc::clone(&barrier);
        let failing = loom::thread::spawn(move || {
            let caught = std::panic::catch_unwind(|| panic!("worker died mid-round"));
            assert!(caught.is_err());
            b2.abort();
        });
        assert_eq!(barrier.wait(None), Err(BarrierError::Aborted));
        failing.join().expect("no panic");
    });
}

/// Spin→park hand-off: a waiter polls twice under the model (the facade's
/// `SPIN_POLL_LIMIT`), then registers in `parked` and sleeps, racing the
/// arrival that releases it. The leader notifies only when it sees a
/// registered parker, so the dangerous schedule is "waiter re-checks the
/// state, leader releases and sees nobody parked, waiter sleeps" — a lost
/// wakeup, which the model would report as a deadlock. Two generations:
/// the first spin never pays in a model, so the second generation takes
/// the backed-off path straight to the park, and the counter reset, the
/// re-arrival and the `parked` bookkeeping are crossed as well; each
/// generation has exactly one leader.
#[test]
fn barrier_park_handoff_never_loses_the_release() {
    loom::model(|| {
        let barrier = Arc::new(RoundBarrier::new(2));
        let leaders = Arc::new(AtomicUsize::new(0));
        let (b2, l2) = (Arc::clone(&barrier), Arc::clone(&leaders));
        let peer = loom::thread::spawn(move || {
            for _ in 0..2 {
                if b2.wait(None).expect("barrier completes") {
                    l2.fetch_add(1, Ordering::SeqCst);
                }
            }
        });
        for _ in 0..2 {
            if barrier.wait(None).expect("barrier completes") {
                leaders.fetch_add(1, Ordering::SeqCst);
            }
        }
        peer.join().expect("no panic");
        assert_eq!(leaders.load(Ordering::SeqCst), 2);
        assert!(!barrier.is_aborted());
    });
}

/// The fabric's single-rendezvous round, with its slot discipline: every
/// worker deposits its report in its own slot and arrives; the leader
/// (whichever arrives last) must find *every* report of *this* round,
/// and leaves each worker a directive before releasing; every worker
/// must then find the directive of its own generation — never a missing
/// one, never the previous round's.
#[test]
fn split_phase_round_publishes_reports_in_and_directives_out() {
    const WORKERS: usize = 2;
    const ROUNDS: u64 = 2;
    struct Slot {
        report: Option<u64>,
        directive: Option<u64>,
    }
    fn round_loop(barrier: &RoundBarrier, slots: &[Mutex<Slot>], me: usize) {
        for round in 1..=ROUNDS {
            lock_recover(&slots[me]).report = Some(round);
            barrier
                .rendezvous(None, || {
                    for slot in slots {
                        let report = lock_recover(slot).report.take();
                        assert_eq!(report, Some(round), "leader missed a report");
                    }
                    for slot in slots {
                        let stale = lock_recover(slot).directive.replace(round);
                        assert_eq!(stale, None, "previous directive never consumed");
                    }
                })
                .expect("round completes");
            let directive = lock_recover(&slots[me]).directive.take();
            assert_eq!(directive, Some(round), "worker {me} saw the wrong generation");
        }
    }
    loom::model(|| {
        let barrier = Arc::new(RoundBarrier::new(WORKERS));
        let slots: Arc<Vec<Mutex<Slot>>> = Arc::new(
            (0..WORKERS).map(|_| Mutex::new(Slot { report: None, directive: None })).collect(),
        );
        let (b2, s2) = (Arc::clone(&barrier), Arc::clone(&slots));
        let peer = loom::thread::spawn(move || round_loop(&b2, &s2, 1));
        round_loop(&barrier, &slots, 0);
        peer.join().expect("no panic");
    });
}

/// A panic in the rendezvous step (the fabric's coordinator) must not
/// strand the peers the leader is holding: the barrier aborts on unwind.
#[test]
fn panicking_rendezvous_step_releases_the_held_peer() {
    loom::model(|| {
        let barrier = Arc::new(RoundBarrier::new(2));
        let b2 = Arc::clone(&barrier);
        let peer = loom::thread::spawn(move || {
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                b2.rendezvous(None, || panic!("coordinator died"))
            }))
        });
        let mine = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            barrier.rendezvous(None, || panic!("coordinator died"))
        }));
        let theirs = peer.join().expect("panic caught inside the thread");
        // Whoever arrived last led and panicked; the other was held and
        // must come back `Aborted`.
        let outcomes = [mine.ok(), theirs.ok()];
        assert!(outcomes.contains(&None), "one of the two led");
        assert!(outcomes.contains(&Some(Err(BarrierError::Aborted))), "{outcomes:?}");
        assert!(barrier.is_aborted());
    });
}

/// MailboxMesh: two senders posting concurrently into one mailbox (each
/// on its own SPSC channel), with a drain racing both. Every message is
/// delivered exactly once and each sender's subsequence arrives in send
/// order, across all interleavings of post, early-post (batch limit) and
/// drain.
#[test]
fn mailbox_fifo_and_exactly_once_under_race() {
    loom::model(|| {
        let mesh = Arc::new(MailboxMesh::new(2));
        let senders: Vec<_> = (0..2u64)
            .map(|s| {
                let mesh = Arc::clone(&mesh);
                loom::thread::spawn(move || {
                    // batch_limit 1: the first send posts immediately; the
                    // second sits pending until the flush — covering both
                    // delivery paths.
                    let mut out = Outbox::new(&mesh, s as usize, 1);
                    out.send(0, (s, 0u64));
                    let mut pending = Outbox::new(&mesh, s as usize, 8);
                    pending.send(0, (s, 1u64));
                    pending.flush();
                    out.flush();
                })
            })
            .collect();
        // Drain concurrently with the senders: whatever has arrived so far
        // must already respect per-sender FIFO.
        let mut got: Vec<(u64, u64)> = Vec::new();
        mesh.drain_into(0, &mut got);
        for h in senders {
            h.join().expect("no panic");
        }
        // Final drain: everything not seen by the racing drain.
        mesh.drain_into(0, &mut got);
        assert_eq!(got.len(), 4, "exactly-once delivery: {got:?}");
        let mut next = [0u64; 2];
        for (s, i) in got {
            assert_eq!(i, next[s as usize], "sender {s} reordered");
            next[s as usize] += 1;
        }
        assert_eq!(next, [2, 2]);
    });
}

/// SPSC ring wrap-around under a producer/consumer race: three posts
/// through a 2-slot ring force the head/tail indices to lap the buffer
/// while a concurrent drain races the producer. FIFO and exactly-once
/// must hold in every interleaving of the slot writes, the tail/head
/// publications and the spill hand-off.
#[test]
fn ring_fifo_and_exactly_once_across_wraparound() {
    loom::model(|| {
        let mesh = Arc::new(MailboxMesh::with_ring_capacity(2, 2));
        let producer = {
            let mesh = Arc::clone(&mesh);
            loom::thread::spawn(move || {
                let mut batch = Vec::new();
                for i in 0u64..3 {
                    batch.push(i);
                    mesh.post(1, 0, &mut batch);
                }
            })
        };
        let mut got: Vec<u64> = Vec::new();
        // Racing drain: observes some consistent prefix of the channel.
        mesh.drain_into(0, &mut got);
        producer.join().expect("no panic");
        // Final drain: the rest. Ring + spill must reassemble send order.
        mesh.drain_into(0, &mut got);
        assert_eq!(got, vec![0, 1, 2], "FIFO and exactly-once across wrap-around");
        assert!(mesh.is_empty(0));
    });
}

/// SPSC spill path under a producer/consumer race: one burst twice the
/// ring's capacity overflows into the spill while a drain races the
/// producer, then a post-spill batch must not overtake the spilled
/// messages. No interleaving may lose, duplicate or reorder a message
/// across the ring/spill boundary.
#[test]
fn ring_spill_is_exactly_once_and_fifo_under_race() {
    loom::model(|| {
        let mesh = Arc::new(MailboxMesh::with_ring_capacity(2, 2));
        let producer = {
            let mesh = Arc::clone(&mesh);
            loom::thread::spawn(move || {
                // Burst of 4 through a 2-slot ring: at least 2 spill.
                let mut batch: Vec<u64> = vec![0, 1, 2, 3];
                mesh.post(1, 0, &mut batch);
                // Sent after the spill: must arrive after it, wherever the
                // racing drain cut the channel.
                batch.push(4);
                mesh.post(1, 0, &mut batch);
            })
        };
        let mut got: Vec<u64> = Vec::new();
        mesh.drain_into(0, &mut got);
        producer.join().expect("no panic");
        mesh.drain_into(0, &mut got);
        assert_eq!(got, vec![0, 1, 2, 3, 4], "spill keeps FIFO and exactly-once");
        assert!(mesh.is_empty(0));
    });
}

/// The round seal under the fabric's cadence (post, seal, rendezvous,
/// drain): a fast sender posts its round-2 message while the slow
/// receiver is still in its round-2 drain. That drain must deliver exactly
/// what was sealed in round 1 — never the racing post — and the round-3
/// drain must deliver exactly the rest. Round 1 delivers nothing. The two
/// seal slots are reused (round 3 overwrites round 1's) while the peer may
/// still be reading the other one.
#[test]
fn sealed_drain_never_observes_the_round_in_progress() {
    const ROUNDS: u64 = 3;
    loom::model(|| {
        let mesh = Arc::new(MailboxMesh::new(2));
        let barrier = Arc::new(RoundBarrier::new(2));
        let sender = {
            let (mesh, barrier) = (Arc::clone(&mesh), Arc::clone(&barrier));
            loom::thread::spawn(move || {
                let mut batch = Vec::new();
                for round in 1..=ROUNDS {
                    batch.push(round);
                    mesh.post(0, 1, &mut batch);
                    mesh.seal_round(0, round);
                    barrier.wait(None).expect("round completes");
                }
            })
        };
        let mut got: Vec<u64> = Vec::new();
        for round in 1..=ROUNDS {
            mesh.drain_round_into(1, round, &mut got);
            let sealed: Vec<u64> = (round > 1).then_some(round - 1).into_iter().collect();
            assert_eq!(got, sealed, "round {round} drain crossed its seal");
            got.clear();
            barrier.wait(None).expect("round completes");
        }
        sender.join().expect("no panic");
        mesh.drain_round_into(1, ROUNDS + 1, &mut got);
        assert_eq!(got, vec![ROUNDS], "the last round's post is delivered by the next drain");
        assert!(mesh.is_empty(1));
    });
}

/// A seal that falls inside the spill: round 1's burst of three overflows
/// a 2-slot ring (two in the ring, one spilled) and round 2's post queues
/// behind it — in the spill while it is non-empty, in the ring once the
/// racing drain has emptied it. The round-2 drain must stop after exactly
/// the three sealed messages wherever the fourth landed, and the next
/// drains deliver the rest in send order: FIFO and exactly-once across
/// ring → spill → ring.
#[test]
fn seal_inside_the_spill_keeps_fifo_and_exactly_once() {
    loom::model(|| {
        let mesh = Arc::new(MailboxMesh::with_ring_capacity(2, 2));
        let barrier = Arc::new(RoundBarrier::new(2));
        let sender = {
            let (mesh, barrier) = (Arc::clone(&mesh), Arc::clone(&barrier));
            loom::thread::spawn(move || {
                let mut batch: Vec<u64> = vec![0, 1, 2];
                mesh.post(0, 1, &mut batch);
                mesh.seal_round(0, 1);
                barrier.wait(None).expect("round completes");
                // Races the receiver's round-2 drain.
                batch.push(3);
                mesh.post(0, 1, &mut batch);
                mesh.seal_round(0, 2);
                batch.push(4);
                mesh.post(0, 1, &mut batch);
            })
        };
        let mut got: Vec<u64> = Vec::new();
        mesh.drain_round_into(1, 1, &mut got);
        assert_eq!(got, Vec::<u64>::new(), "round 1 has no seal before it");
        barrier.wait(None).expect("round completes");
        mesh.drain_round_into(1, 2, &mut got);
        assert_eq!(got, vec![0, 1, 2], "exactly the sealed burst, cut inside the spill or not");
        sender.join().expect("no panic");
        mesh.drain_round_into(1, 3, &mut got);
        assert_eq!(got, vec![0, 1, 2, 3], "round 2's seal covers one more message");
        mesh.drain_into(1, &mut got);
        assert_eq!(got, vec![0, 1, 2, 3, 4], "and the unsealed tail is still there, in order");
        assert!(mesh.is_empty(1));
    });
}

/// `lock_recover` after poisoning: a thread panicking while holding the
/// guard races a writer and a reader; recovery never observes torn state
/// (the two halves of the invariant always agree) in any interleaving.
#[test]
fn lock_recover_never_observes_torn_state() {
    loom::model(|| {
        let cell = Arc::new(Mutex::new((0u64, 0u64)));
        let poisoner = {
            let cell = Arc::clone(&cell);
            loom::thread::spawn(move || {
                let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    let _guard = lock_recover(&cell);
                    panic!("die while holding the lock");
                }));
                assert!(caught.is_err());
            })
        };
        let writer = {
            let cell = Arc::clone(&cell);
            loom::thread::spawn(move || {
                // The fabric's critical-section discipline: a plain data
                // move with no unwind point between the two halves.
                let mut g = lock_recover(&cell);
                g.0 += 1;
                g.1 += 1;
            })
        };
        {
            let g = lock_recover(&cell);
            assert_eq!(g.0, g.1, "torn read through a recovered guard");
        }
        poisoner.join().expect("no panic");
        writer.join().expect("no panic");
        let g = lock_recover(&cell);
        assert_eq!(g.0, g.1);
        assert_eq!(g.0 + g.1, 2, "writer's update survived the poisoning");
    });
}
