//! A round barrier that can be aborted (and timed out) without hanging.
//!
//! `std::sync::Barrier` releases its waiters only when *all* participants
//! arrive — a worker that panics mid-round therefore leaves every peer
//! blocked forever. [`RoundBarrier`] is the fabric's replacement: any
//! participant (typically one that just caught a panic) can [`abort`]
//! (RoundBarrier::abort) the barrier, which wakes every current waiter and
//! fails every future wait immediately. Waits can also carry a timeout, so
//! a peer that silently stops participating (a hang, not a crash) surfaces
//! as an error instead of a stalled process.
//!
//! # Protocol: spin, then park
//!
//! A fabric round is short (microseconds of gate evaluation), so the
//! common case is that the last participant arrives moments after the
//! first. Sleeping on a condvar for that is the dominant cost of a round
//! (a futex wake plus a reschedule per waiter, EXPERIMENTS.md E16), so a
//! wait has three phases:
//!
//! 1. **Arrive** — one `fetch_add` on the arrival counter. The participant
//!    that completes the set is the generation's *leader*: it runs the
//!    optional [`rendezvous`](RoundBarrier::rendezvous) step while every
//!    peer is held, resets the counter and bumps the generation in the
//!    `state` word. No lock is taken.
//! 2. **Spin** — everyone else polls `state` with
//!    [`spin_loop`](crate::sync::hint::spin_loop) hints for at most
//!    [`SPIN_BUDGET`]. The phase is *adaptive*: a wait that had to park
//!    anyway doubles the number of generations that skip it (up to
//!    [`MAX_SPIN_BACKOFF`]), a wait released while spinning resets that —
//!    so on a single core, or when the straggler has lost its core to
//!    somebody else, waiters stop burning the budget and go straight to
//!    the park, probing again now and then.
//! 3. **Park** — a waiter still unreleased registers in `parked` and sleeps
//!    on the condvar. The leader (and `abort`) take the lock and
//!    `notify_all` only when `parked` is non-zero.
//!
//! The spin phase deliberately never calls `yield_now`. Yielding looks
//! right for an oversubscribed host ("hand the CPU to the straggler"), and
//! on an otherwise idle machine it measures the same as spinning — but a
//! waiter that spins and yields is, to the scheduler, one more CPU hog: it
//! forfeits the wake-up preemption a sleeper gets, and every yield next to
//! a CPU-bound neighbour (another tenant's long round, an unrelated
//! process) costs a whole timeslice. With four busy-loop neighbours on the
//! 2-vCPU host a 950-round job took 679 ms that way, against 25 ms for the
//! old condvar barrier and 10–12 ms for this one (EXPERIMENTS.md E16). A
//! failed pure spin costs at most the budget, so no policy can be
//! catastrophically wrong.
//!
//! # Orderings
//!
//! * `arrived.fetch_add(AcqRel)`: the Release half publishes everything the
//!   participant wrote before arriving; the leader's own (last) RMW reads
//!   from the release sequence of every earlier arrival, so its Acquire
//!   half makes all of those writes visible to the rendezvous step.
//! * `state.fetch_add(SeqCst)` by the leader / `state.load` (at least
//!   Acquire) by a waiter: publishes the rendezvous step's writes (and the counter
//!   reset) to every released participant.
//! * No missed wakeup: a parker does `parked += 1` then re-reads `state`;
//!   a releaser changes `state` then reads `parked` — all four SeqCst, so
//!   in their total order either the parker sees the new state and never
//!   sleeps, or the releaser sees the parker and notifies. The parker
//!   holds the lock from registering until `Condvar::wait` releases it
//!   atomically, and the releaser notifies under the same lock, so the
//!   notify cannot fall between the re-check and the sleep.

use crate::sync::{hint, AtomicU64, AtomicUsize, Condvar, Mutex, Ordering, PoisonError};
use std::time::{Duration, Instant};

use crate::poison::lock_recover;

/// Why a [`RoundBarrier::wait`] did not complete.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BarrierError {
    /// A participant aborted the barrier; the round loop must stop.
    Aborted,
    /// The timeout elapsed before every participant arrived.
    TimedOut,
}

/// `state` bit 0: once set, every current and future wait fails.
const ABORTED: u64 = 1;
/// `state` bits 1..: completed generations.
const GENERATION: u64 = 2;

/// How long a waiter polls `state` before it parks. From the sweep in
/// EXPERIMENTS.md E16: the knee is sharp, between 5 µs and 20 µs (a
/// small-circuit round of the straggler lasts a few microseconds), and
/// the plateau beyond it is flat on two cores, so this sits 2.5× past the
/// knee — steady-state rounds never touch the futex — while a wait that
/// was never going to be short wastes at most this much CPU, and (with
/// the backoff) rarely even that.
const SPIN_BUDGET: Duration = Duration::from_micros(50);

/// Polls between two reads of the clock in the spin phase (a poll is a
/// load plus a `spin_loop` hint, ~15 ns; a clock read ~35 ns).
const POLLS_PER_CLOCK_READ: u32 = 32;

/// Longest run of generations that skip the spin phase after it kept
/// failing: the price of a host where spinning never pays (one core) is
/// one budget per this many waits, and a barrier whose conditions improve
/// notices within as many rounds (E16 has the sweep of this, too).
const MAX_SPIN_BACKOFF: u64 = 64;

/// An abortable, timeout-capable counterpart of `std::sync::Barrier`,
/// sized for a fixed set of participants.
#[derive(Debug)]
pub struct RoundBarrier {
    participants: usize,
    /// Arrivals of the generation in progress.
    arrived: AtomicUsize,
    /// Completed generations (`GENERATION` units) plus the `ABORTED` bit:
    /// the one word a waiter polls.
    state: AtomicU64,
    /// Waiters currently registered for a condvar wakeup.
    parked: AtomicUsize,
    /// Spin-phase backoff: the `state` value from which waiters spin again,
    /// and the number of generations the suspension that ends there skips.
    /// Hints only — a stale or torn pair costs one wasted budget or one
    /// avoidable futex wait, never correctness.
    spin_from: AtomicU64,
    spin_backoff: AtomicU64,
    /// Guards nothing but the park/notify hand-off.
    lock: Mutex<()>,
    cvar: Condvar,
}

/// Aborts the barrier if the leader's rendezvous step unwinds: its peers
/// are held and nobody else can release them.
struct AbortOnUnwind<'a>(&'a RoundBarrier);

impl Drop for AbortOnUnwind<'_> {
    fn drop(&mut self) {
        self.0.abort();
    }
}

impl RoundBarrier {
    /// A barrier for `participants` threads.
    ///
    /// # Panics
    ///
    /// Panics if `participants` is zero.
    pub fn new(participants: usize) -> Self {
        assert!(participants >= 1, "barrier needs at least one participant");
        RoundBarrier {
            participants,
            arrived: AtomicUsize::new(0),
            state: AtomicU64::new(0),
            parked: AtomicUsize::new(0),
            spin_from: AtomicU64::new(0),
            spin_backoff: AtomicU64::new(0),
            lock: Mutex::new(()),
            cvar: Condvar::new(),
        }
    }

    /// Blocks until every participant arrives, the barrier is aborted, or
    /// `timeout` (when given) elapses. Returns `Ok(true)` for exactly one
    /// participant per generation (the "leader", matching
    /// `std::sync::BarrierWaitResult::is_leader`).
    ///
    /// A timed-out wait leaves the barrier aborted: a participant that gave
    /// up will never arrive, so letting the others keep waiting on a
    /// now-incomplete set would re-create the hang this type exists to
    /// prevent.
    pub fn wait(&self, timeout: Option<Duration>) -> Result<bool, BarrierError> {
        self.rendezvous(timeout, || ())
    }

    /// [`wait`](RoundBarrier::wait) with a split-phase step: the leader —
    /// the participant whose arrival completes the set — runs `lead` exactly
    /// once per generation, *after* every participant has arrived and
    /// *before* any is released. `lead` therefore sees everything its peers
    /// wrote before arriving, and every peer sees everything `lead` wrote
    /// once its own call returns `Ok` — one barrier crossing does the work
    /// of "barrier, coordinator step, barrier".
    ///
    /// If `lead` panics the barrier is aborted (the held peers wake with
    /// [`BarrierError::Aborted`]) and the panic propagates to the leader's
    /// caller.
    pub fn rendezvous(
        &self,
        timeout: Option<Duration>,
        lead: impl FnOnce(),
    ) -> Result<bool, BarrierError> {
        // Read before arriving: the generation cannot advance until this
        // participant has arrived, so `entered` is the generation it waits
        // out.
        let entered = self.state.load(Ordering::Acquire);
        if entered & ABORTED != 0 {
            return Err(BarrierError::Aborted);
        }
        if self.arrived.fetch_add(1, Ordering::AcqRel) + 1 < self.participants {
            return self.await_release(entered, timeout);
        }
        let guard = AbortOnUnwind(self);
        lead();
        std::mem::forget(guard);
        // Reset before the release below: the next generation's arrivals
        // happen only after their threads observed the new `state`.
        self.arrived.store(0, Ordering::Release);
        self.state.fetch_add(GENERATION, Ordering::SeqCst);
        self.wake_parked();
        Ok(true)
    }

    /// What a waiter that entered at `entered` should return, if anything
    /// changed. A completed generation wins over a concurrent abort (the
    /// next wait reports the abort).
    ///
    /// The load is `SeqCst` for the parker's re-check (module docs); the
    /// spin phase needs only Acquire, which is the same instruction.
    fn outcome(&self, entered: u64) -> Option<Result<bool, BarrierError>> {
        let now = self.state.load(Ordering::SeqCst);
        if now == entered {
            None
        } else if now & !ABORTED != entered {
            Some(Ok(false))
        } else {
            Some(Err(BarrierError::Aborted))
        }
    }

    /// The spin phase: polls until released, aborted, or `until`.
    fn spin(&self, entered: u64, until: Instant) -> Option<Result<bool, BarrierError>> {
        for poll in 1..=hint::SPIN_POLL_LIMIT {
            let outcome = self.outcome(entered);
            if outcome.is_some() {
                return outcome;
            }
            if poll % POLLS_PER_CLOCK_READ == 0 && Instant::now() >= until {
                break;
            }
            hint::spin_loop();
        }
        None
    }

    /// Spin-phase policy: a wait released while spinning clears the backoff;
    /// one that exhausted the budget doubles it and suspends the phase for
    /// that many generations.
    fn adapt_spin(&self, entered: u64, paid: bool) {
        // Hints that publish nothing: racing waiters may overwrite each
        // other's update, and any ordering would do (field docs).
        let backoff = self.spin_backoff.load(Ordering::Acquire);
        if !paid {
            let backoff = (backoff * 2).clamp(1, MAX_SPIN_BACKOFF);
            self.spin_backoff.store(backoff, Ordering::Release);
            self.spin_from.store(entered + (backoff + 1) * GENERATION, Ordering::Release);
        } else if backoff != 0 {
            self.spin_backoff.store(0, Ordering::Release);
        }
    }

    /// The non-leader side of a wait: spin (unless spinning has not been
    /// paying), then park (module docs).
    fn await_release(&self, entered: u64, timeout: Option<Duration>) -> Result<bool, BarrierError> {
        let started = Instant::now();
        let deadline = timeout.map(|t| started + t);
        if entered >= self.spin_from.load(Ordering::Acquire) {
            let budget = started + SPIN_BUDGET;
            let spun = self.spin(entered, deadline.map_or(budget, |d| d.min(budget)));
            self.adapt_spin(entered, spun.is_some());
            if let Some(result) = spun {
                return result;
            }
        }

        let mut guard = lock_recover(&self.lock);
        self.parked.fetch_add(1, Ordering::SeqCst);
        let result = loop {
            if let Some(result) = self.outcome(entered) {
                break result;
            }
            guard = match deadline {
                None => self.cvar.wait(guard).unwrap_or_else(PoisonError::into_inner),
                Some(d) => {
                    let remaining = d.saturating_duration_since(Instant::now());
                    if remaining.is_zero() {
                        // Give up: this participant leaves the set, so the
                        // barrier can never complete again. The exchange
                        // fails only if the release (or an abort) won the
                        // race, and then that outcome stands.
                        let gave_up = self.state.compare_exchange(
                            entered,
                            entered | ABORTED,
                            Ordering::SeqCst,
                            Ordering::SeqCst,
                        );
                        if gave_up.is_ok() {
                            // Lock already held: parked peers are either
                            // inside `Condvar::wait` or yet to re-check.
                            self.cvar.notify_all();
                            break Err(BarrierError::TimedOut);
                        }
                        continue;
                    }
                    let (guard, _) = self
                        .cvar
                        .wait_timeout(guard, remaining)
                        .unwrap_or_else(PoisonError::into_inner);
                    guard
                }
            };
        };
        self.parked.fetch_sub(1, Ordering::SeqCst);
        drop(guard);
        result
    }

    /// Wakes parked waiters after a `state` change, touching the lock only
    /// when someone actually parked.
    fn wake_parked(&self) {
        if self.parked.load(Ordering::SeqCst) > 0 {
            let _guard = lock_recover(&self.lock);
            self.cvar.notify_all();
        }
    }

    /// Aborts the barrier: every blocked waiter wakes with
    /// [`BarrierError::Aborted`] and every future wait fails immediately.
    /// Idempotent.
    pub fn abort(&self) {
        if self.state.fetch_or(ABORTED, Ordering::SeqCst) & ABORTED == 0 {
            self.wake_parked();
        }
    }

    /// True once the barrier has been aborted (or a wait timed out).
    pub fn is_aborted(&self) -> bool {
        self.state.load(Ordering::Acquire) & ABORTED != 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Spins (yielding) until `cond` holds: lets a test line up on the
    /// barrier's own counters instead of sleeping and hoping.
    fn until(cond: impl Fn() -> bool) {
        while !cond() {
            std::thread::yield_now();
        }
    }

    #[test]
    fn completes_like_a_plain_barrier() {
        let b = RoundBarrier::new(4);
        let leaders = std::thread::scope(|s| {
            let handles: Vec<_> =
                (0..4).map(|_| s.spawn(|| b.wait(None).expect("barrier completes"))).collect();
            handles.into_iter().map(|h| h.join().expect("no panic")).filter(|l| *l).count()
        });
        assert_eq!(leaders, 1, "exactly one leader per generation");
        assert!(!b.is_aborted());
    }

    #[test]
    fn abort_wakes_spinning_waiters() {
        let b = RoundBarrier::new(3);
        std::thread::scope(|s| {
            let w1 = s.spawn(|| b.wait(None));
            let w2 = s.spawn(|| b.wait(None));
            // Abort the moment both have arrived: they are polling `state`
            // (or, on a loaded host, at worst about to park — the contract
            // is the same either way).
            until(|| b.arrived.load(Ordering::SeqCst) == 2);
            b.abort();
            assert_eq!(w1.join().expect("no panic"), Err(BarrierError::Aborted));
            assert_eq!(w2.join().expect("no panic"), Err(BarrierError::Aborted));
        });
        assert!(b.is_aborted());
    }

    #[test]
    fn abort_wakes_parked_waiters_and_fails_future_waits() {
        let b = RoundBarrier::new(3);
        std::thread::scope(|s| {
            let w1 = s.spawn(|| b.wait(None));
            let w2 = s.spawn(|| b.wait(None));
            // Both spin budgets exhausted, both asleep on the condvar.
            until(|| b.parked.load(Ordering::SeqCst) == 2);
            b.abort();
            assert_eq!(w1.join().expect("no panic"), Err(BarrierError::Aborted));
            assert_eq!(w2.join().expect("no panic"), Err(BarrierError::Aborted));
        });
        assert_eq!(b.parked.load(Ordering::SeqCst), 0);
        assert_eq!(b.wait(None), Err(BarrierError::Aborted));
        assert!(b.is_aborted());
    }

    #[test]
    fn release_wakes_a_parked_waiter() {
        let b = RoundBarrier::new(2);
        std::thread::scope(|s| {
            let parked = s.spawn(|| b.wait(None));
            until(|| b.parked.load(Ordering::SeqCst) == 1);
            assert_eq!(b.wait(None), Ok(true), "the late arrival leads");
            assert_eq!(parked.join().expect("no panic"), Ok(false));
        });
        assert!(!b.is_aborted());
        // The spin did not pay, so generation 1 skips it and 2 probes again.
        assert_eq!(b.spin_from.load(Ordering::SeqCst), 2 * GENERATION);
    }

    #[test]
    fn spin_phase_backs_off_exponentially_and_recovers_on_the_first_success() {
        let b = RoundBarrier::new(2);
        let mut probing = 0;
        for skipped in [1, 2, 4, 8, 16, 32, 64, 64] {
            b.adapt_spin(probing, false);
            let resume = b.spin_from.load(Ordering::SeqCst);
            assert_eq!(resume, probing + (skipped + 1) * GENERATION);
            probing = resume;
        }
        b.adapt_spin(probing, true);
        b.adapt_spin(probing + GENERATION, false);
        assert_eq!(
            b.spin_from.load(Ordering::SeqCst),
            probing + 3 * GENERATION,
            "one success puts the next failure back at a single skipped generation"
        );
    }

    #[test]
    fn timeouts_on_either_side_of_the_spin_budget_fail_the_wait_and_abort_the_barrier() {
        // Shorter: the deadline ends the spin phase early. Longer: the
        // waiter parks first and the condvar wait times out.
        for timeout in [SPIN_BUDGET / 4, SPIN_BUDGET * 50] {
            let b = RoundBarrier::new(2);
            let start = Instant::now();
            assert_eq!(b.wait(Some(timeout)), Err(BarrierError::TimedOut), "{timeout:?}");
            assert!(start.elapsed() >= timeout, "{timeout:?} returned early");
            assert!(b.is_aborted());
            // The late arriver must not hang on a set that can never
            // complete.
            assert_eq!(b.wait(None), Err(BarrierError::Aborted));
        }
    }

    #[test]
    fn generations_advance_across_rounds() {
        let b = RoundBarrier::new(2);
        std::thread::scope(|s| {
            let t = s.spawn(|| {
                for _ in 0..100 {
                    b.wait(None).expect("round completes");
                }
            });
            for _ in 0..100 {
                b.wait(None).expect("round completes");
            }
            t.join().expect("no panic");
        });
    }

    #[test]
    fn rendezvous_step_runs_once_with_every_peer_held() {
        const WORKERS: usize = 3;
        const ROUNDS: u64 = 200;
        let b = RoundBarrier::new(WORKERS);
        let reports: Vec<AtomicU64> = (0..WORKERS).map(|_| AtomicU64::new(0)).collect();
        let directive = AtomicU64::new(0);
        std::thread::scope(|s| {
            for w in 0..WORKERS {
                let (b, reports, directive) = (&b, &reports, &directive);
                s.spawn(move || {
                    for round in 1..=ROUNDS {
                        reports[w].store(round, Ordering::SeqCst);
                        b.rendezvous(None, || {
                            // Every peer has reported this round and none
                            // has run ahead into the next one.
                            for r in reports {
                                assert_eq!(r.load(Ordering::SeqCst), round);
                            }
                            assert_eq!(directive.swap(round, Ordering::SeqCst), round - 1);
                        })
                        .expect("round completes");
                        assert_eq!(directive.load(Ordering::SeqCst), round);
                    }
                });
            }
        });
    }

    #[test]
    fn a_panicking_rendezvous_step_aborts_instead_of_stranding_the_held_peers() {
        let b = RoundBarrier::new(2);
        std::thread::scope(|s| {
            let held = s.spawn(|| b.wait(None));
            until(|| b.arrived.load(Ordering::SeqCst) == 1);
            let led = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                b.rendezvous(None, || panic!("deliberate test panic in the leader"))
            }));
            assert!(led.is_err(), "the panic reaches the leader's caller");
            assert_eq!(held.join().expect("no panic"), Err(BarrierError::Aborted));
        });
        assert!(b.is_aborted());
    }

    /// Four participants per core, so most waiters' stragglers are not
    /// running and spinning for them is pure waste: the backoff must take
    /// the spin phase out of the way. Measured on the 2-vCPU dev host:
    /// 0.35–0.41 s as shipped (0.11 s pinned to one core), 1.7–1.8 s with
    /// the backoff disabled, and no progress at all for a spin with
    /// neither a budget nor a park behind it. The wall budget leaves the
    /// shipped figure room for a sanitizer build on a busy CI host and
    /// still fails a waiter that never gives the straggler its core.
    #[test]
    fn oversubscribed_barrier_elects_one_leader_per_generation_without_starving() {
        const GENERATIONS: usize = 10_000;
        const WALL_BUDGET: Duration = Duration::from_secs(10);
        let cores = std::thread::available_parallelism().map_or(1, usize::from);
        let participants = 4 * cores;
        let b = RoundBarrier::new(participants);
        let leaders: Vec<AtomicUsize> = (0..GENERATIONS).map(|_| AtomicUsize::new(0)).collect();
        let start = Instant::now();
        std::thread::scope(|s| {
            for _ in 0..participants {
                s.spawn(|| {
                    for led in &leaders {
                        if b.wait(Some(WALL_BUDGET)).expect("generation completes") {
                            led.fetch_add(1, Ordering::SeqCst);
                        }
                    }
                });
            }
        });
        let elapsed = start.elapsed();
        assert!(
            leaders.iter().all(|l| l.load(Ordering::SeqCst) == 1),
            "exactly one leader per generation"
        );
        assert!(
            elapsed < WALL_BUDGET,
            "{participants} participants on {cores} cores took {elapsed:?} for \
             {GENERATIONS} generations"
        );
    }
}
