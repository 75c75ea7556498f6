//! Fabric-level regression tests with a minimal protocol: worker-count
//! edge cases, message delivery across rounds, round accounting, clean
//! termination and abort propagation.

use std::collections::BTreeMap;

use parsim_core::{Observe, SimError, SimStats, Stimulus};
use parsim_event::{Event, VirtualTime};
use parsim_logic::Bit;
use parsim_netlist::bench;
use parsim_partition::Partition;
use parsim_runtime::{
    DecideCx, Decision, Fabric, FaultPlan, RoundCx, RunOptions, SyncProtocol, WorkerOutput,
};
use parsim_trace::Probe;

/// Silences the default panic-hook backtrace chatter for the panics these
/// tests deliberately provoke inside worker threads, chaining everything
/// else to the previous hook.
fn quiet_deliberate_panics() {
    static ONCE: std::sync::Once = std::sync::Once::new();
    ONCE.call_once(|| {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let msg = info
                .payload()
                .downcast_ref::<String>()
                .map(String::as_str)
                .or_else(|| info.payload().downcast_ref::<&str>().copied())
                .unwrap_or("");
            if !msg.contains("deliberate test panic") && !msg.contains("injected") {
                prev(info);
            }
        }));
    });
}

/// A protocol that ignores the circuit entirely: each worker passes one
/// token per round to its successor for a fixed number of rounds. Exercises
/// the fabric's mailbox delivery (including self-posts on a single worker),
/// round cadence and termination without any simulation semantics.
struct TokenRing {
    sending_rounds: u64,
}

struct RingWorker {
    received: u64,
    sum: u64,
}

impl SyncProtocol<Bit> for TokenRing {
    type Msg = u64;
    type Worker = RingWorker;
    /// Tokens received this round.
    type Report = u64;
    /// Completed round count.
    type Verdict = u64;

    fn worker(
        &self,
        _fabric: &Fabric<'_>,
        _worker: usize,
        _preloads: Vec<Vec<Event<Bit>>>,
    ) -> RingWorker {
        RingWorker { received: 0, sum: 0 }
    }

    fn first_verdict(&self) -> u64 {
        0
    }

    fn round(
        &self,
        fabric: &Fabric<'_>,
        state: &mut RingWorker,
        verdict: &u64,
        cx: &mut RoundCx<'_, '_, u64>,
    ) -> u64 {
        let got = cx.inbox.len() as u64;
        state.received += got;
        for m in cx.inbox.drain(..) {
            state.sum += m;
        }
        if *verdict < self.sending_rounds {
            // Address the successor by LP (first LP of the next worker).
            let next_lp = ((cx.worker + 1) % fabric.workers()) * cx.granularity;
            cx.send_lp(next_lp, *verdict);
        }
        got
    }

    fn decide(
        &self,
        _fabric: &Fabric<'_>,
        _reports: &mut [Option<u64>],
        cx: &mut DecideCx<'_>,
    ) -> Decision<u64> {
        // One extra round drains the tokens sent in the last sending round.
        if cx.round > self.sending_rounds {
            Decision::Stop
        } else {
            Decision::Continue(cx.round)
        }
    }

    fn finish(&self, _fabric: &Fabric<'_>, _worker: usize, state: RingWorker) -> WorkerOutput<Bit> {
        let mut stats = SimStats::default();
        stats.events_processed = state.received;
        stats.messages_sent = state.sum;
        WorkerOutput { owned_values: Vec::new(), waveforms: BTreeMap::new(), stats }
    }
}

fn run_ring(workers: usize, sending_rounds: u64) -> SimStats {
    let c = bench::c17();
    // Worker count independent of gate placement: all gates in block 0,
    // the remaining blocks own no gates at all.
    let part = Partition::new(workers, vec![0; c.len()]).expect("valid partition");
    let fabric = Fabric::new(&c, &part, 1, Observe::Outputs);
    assert_eq!(fabric.workers(), workers);
    let out = fabric
        .run::<Bit, _>(
            &Stimulus::quiet(100),
            VirtualTime::new(100),
            &Probe::disabled(),
            &TokenRing { sending_rounds },
            &RunOptions::default(),
        )
        .expect("a healthy token ring completes");
    out.stats
}

#[test]
fn tokens_are_delivered_at_every_worker_count() {
    for workers in [1, 2, 3, 8] {
        let rounds = 5;
        let stats = run_ring(workers, rounds);
        // Every worker sends one token in each of `rounds` rounds; every
        // token is delivered exactly once (self-posts included at P = 1).
        assert_eq!(stats.events_processed, workers as u64 * rounds, "token count at P = {workers}");
        // Tokens carry the round number 0..rounds, once per worker.
        let expected_sum = workers as u64 * (0..rounds).sum::<u64>();
        assert_eq!(stats.messages_sent, expected_sum, "token payloads at P = {workers}");
    }
}

#[test]
fn round_count_is_reported_as_barriers() {
    // `sending_rounds` rounds of traffic plus the draining round.
    let stats = run_ring(4, 7);
    assert_eq!(stats.barriers, 8);
}

#[test]
fn zero_round_protocol_terminates_immediately() {
    let stats = run_ring(3, 0);
    assert_eq!(stats.events_processed, 0);
    assert_eq!(stats.barriers, 1);
}

#[test]
fn workers_exceeding_lps_still_run() {
    // c17 has a handful of gates; 8 workers leaves most blocks empty.
    let stats = run_ring(8, 3);
    assert_eq!(stats.events_processed, 24);
}

/// Strict round delivery as a protocol: every worker posts its round number
/// to every worker (itself included) each round, and requires its round-*r*
/// inbox to hold exactly the P messages stamped *r − 1* — nothing from the
/// round in progress, nothing left over — and none in round 1.
struct RoundEcho {
    rounds: u64,
}

impl SyncProtocol<Bit> for RoundEcho {
    type Msg = u64;
    type Worker = ();
    type Report = ();
    /// Completed round count.
    type Verdict = u64;

    fn worker(&self, _f: &Fabric<'_>, _w: usize, _p: Vec<Vec<Event<Bit>>>) {}

    fn first_verdict(&self) -> u64 {
        0
    }

    fn round(&self, fabric: &Fabric<'_>, _s: &mut (), done: &u64, cx: &mut RoundCx<'_, '_, u64>) {
        let round = done + 1;
        let expected = if round == 1 { Vec::new() } else { vec![round - 1; fabric.workers()] };
        assert_eq!(*cx.inbox, expected, "worker {} round {round}: not round-strict", cx.worker);
        cx.inbox.clear();
        for lp in 0..fabric.workers() {
            cx.send_lp(lp, round);
        }
    }

    fn decide(
        &self,
        _f: &Fabric<'_>,
        _r: &mut [Option<()>],
        cx: &mut DecideCx<'_>,
    ) -> Decision<u64> {
        if cx.round >= self.rounds {
            Decision::Stop
        } else {
            Decision::Continue(cx.round)
        }
    }

    fn finish(&self, _f: &Fabric<'_>, _w: usize, (): ()) -> WorkerOutput<Bit> {
        WorkerOutput {
            owned_values: Vec::new(),
            waveforms: BTreeMap::new(),
            stats: SimStats::default(),
        }
    }
}

#[test]
fn a_round_delivers_exactly_the_previous_rounds_posts() {
    // Fails without the round seal: a worker that starts a round late
    // (thread start-up skew in round 1 is enough) drains a peer's posts of
    // the same round. The oversubscribed count makes late drains the rule.
    const ROUNDS: u64 = 10_000;
    const WALL_BUDGET: std::time::Duration = std::time::Duration::from_secs(60);
    let cores = std::thread::available_parallelism().map_or(1, std::num::NonZero::get);
    let c = bench::c17();
    let start = std::time::Instant::now();
    for workers in [2, 4, 4 * cores] {
        let part = Partition::new(workers, vec![0; c.len()]).expect("valid partition");
        let fabric = Fabric::new(&c, &part, 1, Observe::Outputs);
        let out = fabric
            .run::<Bit, _>(
                &Stimulus::quiet(100),
                VirtualTime::new(100),
                &Probe::disabled(),
                &RoundEcho { rounds: ROUNDS },
                &RunOptions::default(),
            )
            .unwrap_or_else(|e| panic!("P = {workers}: {e}"));
        assert_eq!(out.stats.barriers, ROUNDS, "P = {workers}");
    }
    let took = start.elapsed();
    assert!(took < WALL_BUDGET, "3 x {ROUNDS} rounds took {took:?} (budget {WALL_BUDGET:?})");
}

/// A protocol whose coordinator aborts on the first decision.
struct AbortImmediately;

impl SyncProtocol<Bit> for AbortImmediately {
    type Msg = ();
    type Worker = ();
    type Report = ();
    type Verdict = ();

    fn worker(&self, _f: &Fabric<'_>, _w: usize, _p: Vec<Vec<Event<Bit>>>) {}

    fn first_verdict(&self) {}

    fn round(&self, _f: &Fabric<'_>, _s: &mut (), _v: &(), cx: &mut RoundCx<'_, '_, ()>) {
        cx.inbox.clear();
    }

    fn decide(
        &self,
        _f: &Fabric<'_>,
        _r: &mut [Option<()>],
        _cx: &mut DecideCx<'_>,
    ) -> Decision<()> {
        Decision::Abort("protocol invariant violated (test)".into())
    }

    fn finish(&self, _f: &Fabric<'_>, _w: usize, (): ()) -> WorkerOutput<Bit> {
        WorkerOutput {
            owned_values: Vec::new(),
            waveforms: BTreeMap::new(),
            stats: SimStats::default(),
        }
    }
}

#[test]
fn abort_panics_with_the_protocol_message_instead_of_hanging() {
    let c = bench::c17();
    let part = Partition::new(3, vec![0; c.len()]).expect("valid partition");
    let fabric = Fabric::new(&c, &part, 1, Observe::Outputs);
    let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        fabric
            .run::<Bit, _>(
                &Stimulus::quiet(100),
                VirtualTime::new(100),
                &Probe::disabled(),
                &AbortImmediately,
                &RunOptions::default(),
            )
            .expect("caller treats any failure as a bug")
    }));
    let payload = result.expect_err("abort must panic");
    let msg = payload
        .downcast_ref::<String>()
        .cloned()
        .or_else(|| payload.downcast_ref::<&str>().map(|s| (*s).to_string()))
        .unwrap_or_default();
    assert!(msg.contains("protocol invariant violated"), "unexpected panic payload: {msg}");
}

#[test]
fn run_surfaces_an_abort_as_a_structured_error_for_the_whole_run() {
    let c = bench::c17();
    let part = Partition::new(3, vec![0; c.len()]).expect("valid partition");
    let fabric = Fabric::new(&c, &part, 1, Observe::Outputs);
    let err = fabric
        .run::<Bit, _>(
            &Stimulus::quiet(100),
            VirtualTime::new(100),
            &Probe::disabled(),
            &AbortImmediately,
            &RunOptions::default(),
        )
        .expect_err("abort must fail the run");
    match err {
        SimError::ProtocolAbort { round, ref reason } => {
            assert_eq!(round, 1);
            assert!(reason.contains("protocol invariant violated"), "{reason}");
        }
        other => panic!("expected ProtocolAbort, got {other}"),
    }
}

/// A protocol where one worker panics in a given round while the others
/// keep exchanging tokens — the regression shape for the mid-round
/// deadlock: without abort-safe barriers, the survivors would block
/// forever waiting for the dead worker.
struct PanicAt {
    victim: usize,
    round: u64,
}

impl SyncProtocol<Bit> for PanicAt {
    type Msg = u64;
    type Worker = u64;
    type Report = ();
    type Verdict = ();

    fn worker(&self, _f: &Fabric<'_>, _w: usize, _p: Vec<Vec<Event<Bit>>>) -> u64 {
        0
    }

    fn first_verdict(&self) {}

    fn round(&self, fabric: &Fabric<'_>, state: &mut u64, _v: &(), cx: &mut RoundCx<'_, '_, u64>) {
        *state += 1;
        cx.inbox.clear();
        cx.note_progress(cx.worker, VirtualTime::new(*state));
        if cx.worker == self.victim && *state == self.round {
            panic!("deliberate test panic (worker {})", cx.worker);
        }
        // Keep real traffic flowing so surviving workers genuinely wait on
        // the mailbox/barrier path, not on an idle loop.
        let next_lp = ((cx.worker + 1) % fabric.workers()) * cx.granularity;
        cx.send_lp(next_lp, *state);
    }

    fn decide(
        &self,
        _f: &Fabric<'_>,
        _r: &mut [Option<()>],
        cx: &mut DecideCx<'_>,
    ) -> Decision<()> {
        if cx.round >= 50 {
            Decision::Stop
        } else {
            Decision::Continue(())
        }
    }

    fn finish(&self, _f: &Fabric<'_>, _w: usize, _s: u64) -> WorkerOutput<Bit> {
        WorkerOutput {
            owned_values: Vec::new(),
            waveforms: BTreeMap::new(),
            stats: SimStats::default(),
        }
    }
}

#[test]
fn worker_panic_mid_round_errors_instead_of_hanging_or_aborting() {
    quiet_deliberate_panics();
    let c = bench::c17();
    let part = Partition::new(4, vec![0; c.len()]).expect("valid partition");
    let fabric = Fabric::new(&c, &part, 1, Observe::Outputs);
    let err = fabric
        .run::<Bit, _>(
            &Stimulus::quiet(100),
            VirtualTime::new(100),
            &Probe::disabled(),
            &PanicAt { victim: 2, round: 3 },
            &RunOptions::default(),
        )
        .expect_err("a worker panic must fail the run");
    match err {
        SimError::WorkerPanic { diagnostic, ref message, .. } => {
            assert_eq!(diagnostic.worker, 2);
            assert_eq!(diagnostic.round, 3);
            assert_eq!(diagnostic.lp, Some(2), "progress mark survives the panic");
            assert_eq!(diagnostic.virtual_time, Some(VirtualTime::new(3)));
            assert!(message.contains("deliberate test panic"), "{message}");
        }
        other => panic!("expected WorkerPanic, got {other}"),
    }
    assert_eq!(err.worker(), Some(2));
    assert_eq!(err.round(), Some(3));
}

#[test]
fn worker_panic_in_the_very_first_round_is_also_safe() {
    quiet_deliberate_panics();
    let c = bench::c17();
    let part = Partition::new(2, vec![0; c.len()]).expect("valid partition");
    let fabric = Fabric::new(&c, &part, 1, Observe::Outputs);
    let err = fabric
        .run::<Bit, _>(
            &Stimulus::quiet(100),
            VirtualTime::new(100),
            &Probe::disabled(),
            &PanicAt { victim: 0, round: 1 },
            &RunOptions::default(),
        )
        .expect_err("a worker panic must fail the run");
    assert_eq!(err.worker(), Some(0));
    assert_eq!(err.round(), Some(1));
}

#[test]
fn stalled_worker_is_named_on_either_side_of_the_barrier_spin_budget() {
    use std::time::Duration;
    let c = bench::c17();
    let part = Partition::new(4, vec![0; c.len()]).expect("valid partition");
    let fabric = Fabric::new(&c, &part, 1, Observe::Outputs);
    // 20 µs expires while the waiters still spin; 100 ms only after they
    // parked. The short guard could also fire on a merely slow peer, so it
    // stalls round 1 (the only round it can then blame) and tolerates
    // extra names; the long one must name exactly the culprit.
    for (timeout, stall_round) in [(Duration::from_micros(20), 1), (Duration::from_millis(100), 3)]
    {
        let err = fabric
            .run::<Bit, _>(
                &Stimulus::quiet(100),
                VirtualTime::new(100),
                &Probe::disabled(),
                &TokenRing { sending_rounds: 20 },
                &RunOptions {
                    faults: Some(FaultPlan::new().with_stall(2, stall_round)),
                    barrier_timeout: Some(timeout),
                    ..RunOptions::default()
                },
            )
            .expect_err("a stalled worker must time the run out");
        match err {
            SimError::BarrierTimeout { round, waited, ref stalled, .. } => {
                assert_eq!(round, stall_round, "{timeout:?}: wrong round blamed");
                assert_eq!(waited, timeout);
                assert!(stalled.iter().any(|d| d.worker == 2), "{timeout:?}: {stalled:?}");
                if stall_round > 1 {
                    assert!(stalled.iter().all(|d| d.worker == 2), "{timeout:?}: {stalled:?}");
                }
            }
            other => panic!("{timeout:?}: expected BarrierTimeout, got {other}"),
        }
    }
}

/// A protocol whose coordinator step panics in a given round.
struct DecidePanics {
    round: u64,
}

impl SyncProtocol<Bit> for DecidePanics {
    type Msg = ();
    type Worker = ();
    type Report = ();
    type Verdict = ();

    fn worker(&self, _f: &Fabric<'_>, _w: usize, _p: Vec<Vec<Event<Bit>>>) {}

    fn first_verdict(&self) {}

    fn round(&self, _f: &Fabric<'_>, _s: &mut (), _v: &(), cx: &mut RoundCx<'_, '_, ()>) {
        cx.inbox.clear();
    }

    fn decide(
        &self,
        _f: &Fabric<'_>,
        reports: &mut [Option<()>],
        cx: &mut DecideCx<'_>,
    ) -> Decision<()> {
        assert!(reports.iter().all(Option::is_some), "decide sees every report");
        if cx.round == self.round {
            panic!("deliberate test panic in decide");
        }
        Decision::Continue(())
    }

    fn finish(&self, _f: &Fabric<'_>, _w: usize, (): ()) -> WorkerOutput<Bit> {
        WorkerOutput {
            owned_values: Vec::new(),
            waveforms: BTreeMap::new(),
            stats: SimStats::default(),
        }
    }
}

#[test]
fn panic_in_decide_fails_every_worker_without_stranding_the_held_peers() {
    quiet_deliberate_panics();
    let c = bench::c17();
    let part = Partition::new(4, vec![0; c.len()]).expect("valid partition");
    let fabric = Fabric::new(&c, &part, 1, Observe::Outputs);
    let err = fabric
        .run::<Bit, _>(
            &Stimulus::quiet(100),
            VirtualTime::new(100),
            &Probe::disabled(),
            &DecidePanics { round: 5 },
            &RunOptions::default(),
        )
        .expect_err("a coordinator panic must fail the run");
    match err {
        SimError::WorkerPanic { diagnostic, ref message, ref also_failed } => {
            assert_eq!(diagnostic.round, 5);
            assert!(message.contains("deliberate test panic in decide"), "{message}");
            assert!(also_failed.is_empty(), "peers leave on the broadcast, not by panicking");
        }
        other => panic!("expected WorkerPanic, got {other}"),
    }
}

#[test]
fn lp_to_worker_mapping_is_consistent() {
    let c = bench::c17();
    let part = Partition::new(3, vec![0; c.len()]).expect("valid partition");
    let fabric = Fabric::new(&c, &part, 4, Observe::Outputs);
    assert_eq!(fabric.granularity(), 4);
    assert_eq!(fabric.topo().lps().len(), 12);
    for lp in 0..12 {
        let w = fabric.worker_of(lp);
        assert!(fabric.my_lps(w).contains(&lp));
        assert_eq!(w * 4 + fabric.slot_of(lp), lp);
    }
}
