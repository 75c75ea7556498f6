//! The bit-parallel compiled oblivious kernel.

use std::marker::PhantomData;
use std::ops::Range;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, RwLock};

use parsim_core::{Observe, SimStats, WaveRecorder};
use parsim_event::VirtualTime;
use parsim_logic::{GateKind, LogicValue};
use parsim_netlist::{Circuit, GateId};
use parsim_runtime::{lock_recover, RoundBarrier};
use parsim_trace::{Probe, ProbeHandle, TraceKind, NO_LP};

use crate::compile::{assert_unit_delays, CompiledBlock, CompiledOp};
use crate::packed::{PackedValue, LANES};
use crate::stimulus::{PackedEvent, PackedOutcome, PackedStimulus, PackedWaveform};

/// The §IV oblivious algorithm, bit-parallel: 64 independent stimulus
/// patterns per machine word, one word-wide gate operation per gate per
/// tick.
///
/// The kernel compiles the circuit once into a straight-line kind-major
/// schedule ([`CompiledBlock`]) and then, like [`ObliviousSimulator`],
/// evaluates every gate at every tick with double buffering — tick `t`
/// values are a pure function of tick `t − 1` values, i.e. unit-delay
/// semantics: evaluation fills a second full value buffer, the observed
/// nets (only those) are compared and recorded, and the buffers swap. The
/// packed operations are lane-exact, so **lane `k` of a packed run is
/// bit-identical to a scalar run driven by stimulus lane `k` alone**
/// (waveforms included); the differential suite compares packed runs
/// against 64 [`SequentialSimulator`] runs.
///
/// Wide schedules can optionally be sharded across threads
/// ([`with_threads`](BitSimulator::with_threads)): each section's ops are
/// chunked over the `parsim-runtime` worker pool, workers evaluate their
/// chunks against a frozen value snapshot, and worker 0 folds the results
/// into the next buffer and publishes it exactly as the inline loop does —
/// the threaded run is bit-identical to the single-threaded one.
///
/// [`ObliviousSimulator`]: parsim_core::ObliviousSimulator
/// [`SequentialSimulator`]: parsim_core::SequentialSimulator
///
/// # Panics
///
/// [`run`](BitSimulator::run) panics if any non-source gate has a delay
/// other than one tick (the oblivious precondition).
///
/// # Examples
///
/// ```
/// use parsim_bitsim::{BitSimulator, PackedBit, PackedStimulus};
/// use parsim_core::{Observe, SequentialSimulator, Simulator, Stimulus};
/// use parsim_event::VirtualTime;
/// use parsim_logic::Bit;
/// use parsim_netlist::bench;
///
/// let c = bench::c17();
/// let stim = PackedStimulus::new((0..64).map(|k| Stimulus::random(k + 1, 7)).collect());
/// let until = VirtualTime::new(120);
/// let packed = BitSimulator::<PackedBit>::new().with_observe(Observe::AllNets).run(
///     &c,
///     &stim,
///     until,
/// );
/// // Lane 17 ≡ the scalar run of stimulus 17.
/// let scalar = SequentialSimulator::<Bit>::new().with_observe(Observe::AllNets).run(
///     &c,
///     stim.lane(17),
///     until,
/// );
/// assert_eq!(packed.lane_outcome(17).divergence_from(&scalar), None);
/// ```
#[derive(Debug, Clone)]
pub struct BitSimulator<P> {
    observe: Observe,
    probe: Probe,
    threads: usize,
    _values: PhantomData<P>,
}

impl<P: PackedValue> BitSimulator<P> {
    /// Creates the kernel (single-threaded, observing primary outputs).
    pub fn new() -> Self {
        BitSimulator {
            observe: Observe::Outputs,
            probe: Probe::disabled(),
            threads: 1,
            _values: PhantomData,
        }
    }

    /// Selects which nets to record waveforms for.
    pub fn with_observe(mut self, observe: Observe) -> Self {
        self.observe = observe;
        self
    }

    /// Attaches a trace probe. The kernel records one batched `GateEval`
    /// per tick (`arg` = packed word evaluations), a `Dequeue` per applied
    /// packed input event, and — per tick, per schedule section, per
    /// worker — a `Charge` span (`lp` = section index, `arg` = span
    /// nanoseconds) for the worker's share of the section.
    pub fn with_probe(mut self, probe: Probe) -> Self {
        self.probe = probe;
        self
    }

    /// Shards each section's ops across `threads` workers on the
    /// `parsim-runtime` pool. `1` (the default) evaluates inline. The
    /// result is bit-identical either way.
    ///
    /// # Panics
    ///
    /// Panics if `threads` is zero.
    pub fn with_threads(mut self, threads: usize) -> Self {
        assert!(threads >= 1, "thread count must be at least 1");
        self.threads = threads;
        self
    }

    /// The kernel's display name.
    pub fn name(&self) -> String {
        if self.threads > 1 {
            format!("bitsim[{}x{}]", LANES, self.threads)
        } else {
            format!("bitsim[{LANES}]")
        }
    }

    /// Runs all lanes of `stimulus` to `until` (inclusive of events stamped
    /// exactly `until`) in one packed pass.
    pub fn run(
        &self,
        circuit: &Circuit,
        stimulus: &PackedStimulus,
        until: VirtualTime,
    ) -> PackedOutcome<P> {
        let lanes = stimulus.lanes();
        let mut events = stimulus.events::<P>(circuit, until);
        // Constants behave like a t = 0 input event, on every lane.
        for (id, g) in circuit.iter() {
            if g.kind() == GateKind::Const1 {
                events.push(PackedEvent {
                    time: VirtualTime::ZERO,
                    net: id,
                    mask: lanes_mask(lanes),
                    value: P::splat(P::Scalar::ONE),
                });
            }
        }
        self.run_events(circuit, events, lanes, until)
    }

    /// Runs a pre-transposed packed event stream — the lower-level entry
    /// used by the fault campaign and by tests that seed non-boolean
    /// initial lanes (e.g. `X` on a subset of lanes at `t = 0`). Events
    /// are (stably) sorted by `(time, net)` before the run, the order every
    /// scalar kernel applies input events in.
    pub fn run_events(
        &self,
        circuit: &Circuit,
        events: Vec<PackedEvent<P>>,
        lanes: usize,
        until: VirtualTime,
    ) -> PackedOutcome<P> {
        self.run_events_forced(circuit, events, lanes, until, &[])
    }

    /// [`run_events`](BitSimulator::run_events) with per-lane stuck value
    /// forcing: after every apply phase, each [`PackedForce`]'s net is
    /// overridden in the forced lanes, so downstream gates only ever see
    /// the stuck value — lane `k` behaves like the circuit with fault `k`
    /// injected. This is the fault campaign's entry point: up to 64 faulty
    /// machines per packed pass.
    pub fn run_events_forced(
        &self,
        circuit: &Circuit,
        mut events: Vec<PackedEvent<P>>,
        lanes: usize,
        until: VirtualTime,
        forces: &[PackedForce<P>],
    ) -> PackedOutcome<P> {
        assert!((1..=LANES).contains(&lanes), "1..={LANES} lanes required, got {lanes}");
        events.sort_by_key(|e| (e.time, e.net.index()));
        assert_unit_delays(circuit);
        let cc = CompiledBlock::compile(circuit);
        let apply = ApplyPhase {
            events,
            forces: forces.to_vec(),
            sources: circuit.ids().filter(|&id| circuit.kind(id).is_source()).collect(),
            next: vec![P::ALL_ZERO; cc.nets()],
            waveforms: WaveRecorder::observing(
                circuit,
                self.observe,
                PackedWaveform::new(P::ALL_ZERO),
            ),
            next_input: 0,
            stats: SimStats::default(),
        };
        let (final_values, apply) = if self.threads > 1 {
            self.run_sharded(cc, apply, until)
        } else {
            self.run_inline(&cc, apply, until)
        };
        PackedOutcome {
            final_values,
            waveforms: apply.waveforms.into_map(),
            end_time: until,
            stats: apply.stats,
            lanes,
        }
    }

    /// The single-threaded hot loop.
    fn run_inline(
        &self,
        cc: &CompiledBlock,
        mut apply: ApplyPhase<P>,
        until: VirtualTime,
    ) -> (Vec<P>, ApplyPhase<P>) {
        let mut values = vec![P::ALL_ZERO; cc.nets()];
        let mut seq = SeqState::new(cc);
        let share = shares(cc, 1).pop().expect("one worker, one share");
        let mut ph = self.probe.handle();

        let mut t = 0u64;
        loop {
            apply.tick(VirtualTime::new(t), &mut values, &mut ph);
            if t >= until.ticks() {
                break;
            }
            let evals = eval_share(cc, &share, &values, &mut apply.next, &mut seq, &mut ph, t);
            apply.stats.gate_evaluations += evals;
            if ph.enabled() {
                ph.emit(t, t, 0, NO_LP, TraceKind::GateEval, evals);
            }
            t += 1;
        }
        (values, apply)
    }

    /// The section-sharded loop: `threads` workers on the **persistent**
    /// runtime pool ([`parsim_runtime::global_pool`]) evaluate disjoint
    /// chunks of every section against a frozen snapshot of the tick's
    /// values; worker 0 folds all results into the next buffer and runs
    /// the same apply phase, so the outcome is bit-identical to
    /// [`run_inline`]. Repeated sharded runs (a bench sweep, a fault
    /// campaign) reuse the pool's threads instead of spawning a fresh set
    /// per run.
    fn run_sharded(
        &self,
        cc: CompiledBlock,
        apply: ApplyPhase<P>,
        until: VirtualTime,
    ) -> (Vec<P>, ApplyPhase<P>) {
        let workers = self.threads;
        let n = cc.nets();

        // Each worker owns a full-width pending buffer plus the sequential
        // state of its ops (globally indexed; only owned slots are used).
        struct Shard<P> {
            pending: Vec<P>,
            seq: SeqState<P>,
        }
        // Everything the workers touch, owned (`'static`) and shared via
        // `Arc` — persistent pool threads outlive this call's borrows.
        struct Shared<P: PackedValue> {
            shares: Vec<Share>,
            cc: CompiledBlock,
            values: RwLock<Vec<P>>,
            shards: Vec<Mutex<Shard<P>>>,
            /// Worker 0 owns the apply phase for the whole run.
            apply: Mutex<Option<ApplyPhase<P>>>,
            barrier: RoundBarrier,
            stop: AtomicBool,
            until: VirtualTime,
            probe: Probe,
        }
        let shards: Vec<Mutex<Shard<P>>> = (0..workers)
            .map(|_| Mutex::new(Shard { pending: vec![P::ALL_ZERO; n], seq: SeqState::new(&cc) }))
            .collect();
        let shared = std::sync::Arc::new(Shared {
            shares: shares(&cc, workers),
            cc,
            values: RwLock::new(vec![P::ALL_ZERO; n]),
            shards,
            apply: Mutex::new(Some(apply)),
            barrier: RoundBarrier::new(workers),
            stop: AtomicBool::new(false),
            until,
            probe: self.probe.clone(),
        });

        // A worker that unwinds mid-round would leave its peers blocked on
        // the round barrier forever; abort the barrier on the way out so
        // they fail fast (and the original panic propagates) instead.
        struct AbortOnUnwind<'a>(&'a RoundBarrier);
        impl Drop for AbortOnUnwind<'_> {
            fn drop(&mut self) {
                if std::thread::panicking() {
                    self.0.abort();
                }
            }
        }

        let worker_shared = std::sync::Arc::clone(&shared);
        let mut results = parsim_runtime::global_pool().run_static(workers, move |w| {
            let sh = &*worker_shared;
            let _abort_guard = AbortOnUnwind(&sh.barrier);
            let mut ph = sh.probe.handle();
            let mut state = if w == 0 {
                Some(lock_recover(&sh.apply).take().expect("apply state"))
            } else {
                None
            };
            let mut evals = 0u64;
            let mut t = 0u64;
            loop {
                // Round phase 1 — apply: worker 0 folds every worker's
                // pending buffer into the next values and publishes them.
                if w == 0 {
                    let st = state.as_mut().expect("worker 0 owns the apply state");
                    let mut vals = sh.values.write().expect("values lock");
                    for (shard, share) in sh.shards.iter().zip(&sh.shares) {
                        let shard = lock_recover(shard);
                        for op in share.chunks.iter().flat_map(|c| &sh.cc.ops()[c.ops.clone()]) {
                            st.next[op.gate.index()] = shard.pending[op.gate.index()];
                        }
                    }
                    st.tick(VirtualTime::new(t), &mut vals, &mut ph);
                    if t >= sh.until.ticks() {
                        sh.stop.store(true, Ordering::Release);
                    }
                }
                // Round phase 2 — everyone sees the applied values.
                ph.barrier_span(w as u32, t, || sh.barrier.wait(None))
                    .expect("barrier aborted: a peer worker failed");
                if sh.stop.load(Ordering::Acquire) {
                    break;
                }
                {
                    let vals = sh.values.read().expect("values lock");
                    let mut shard = lock_recover(&sh.shards[w]);
                    let Shard { pending, seq } = &mut *shard;
                    evals += eval_share(&sh.cc, &sh.shares[w], &vals, pending, seq, &mut ph, t);
                }
                // Round phase 3 — eval done, shard locks released.
                ph.barrier_span(w as u32, t, || sh.barrier.wait(None))
                    .expect("barrier aborted: a peer worker failed");
                t += 1;
            }
            (state, evals)
        });

        let mut st = results
            .iter_mut()
            .find_map(|(s, _)| s.take())
            .expect("worker 0 returns the apply state");
        st.stats.gate_evaluations += results.iter().map(|&(_, e)| e).sum::<u64>();
        st.stats.barriers = until.ticks() + 1;
        let values = shared.values.read().expect("values lock").clone();
        (values, st)
    }
}

impl<P: PackedValue> Default for BitSimulator<P> {
    fn default() -> Self {
        Self::new()
    }
}

/// A per-lane stuck value: `net` is held at the corresponding lanes of
/// `value` in every lane of `mask`, overriding whatever its driver (or an
/// input event) produced. Lanes outside `mask` are untouched.
///
/// Forcing a net is observably equivalent to `parsim_core::fault::inject`'s
/// circuit rewiring: readers only ever see the stuck value, and the net's
/// own waveform matches the injected constant's.
#[derive(Debug, Clone, Copy)]
pub struct PackedForce<P> {
    /// The forced net.
    pub net: GateId,
    /// Which lanes are forced (bit `k` = lane `k`).
    pub mask: u64,
    /// The stuck values; lanes outside `mask` are ignored.
    pub value: P,
}

/// All populated lanes as a mask.
fn lanes_mask(lanes: usize) -> u64 {
    if lanes >= LANES {
        u64::MAX
    } else {
        (1u64 << lanes) - 1
    }
}

/// Everything that happens between two evaluations: the buffer evaluation
/// fills, the observed waveforms, and the input and force streams. One
/// owner per run — the inline loop, or worker 0 of a sharded run.
struct ApplyPhase<P> {
    /// Sorted by `(time, net)`.
    events: Vec<PackedEvent<P>>,
    forces: Vec<PackedForce<P>>,
    /// Nets no op drives (inputs and constants).
    sources: Vec<GateId>,
    /// The outputs computed from the previous tick's values, applied this
    /// tick (unit delay). All-zero like the initial values, so the very
    /// first application is a no-op, like the scalar kernel's.
    next: Vec<P>,
    waveforms: WaveRecorder<PackedWaveform<P>>,
    next_input: usize,
    stats: SimStats,
}

impl<P: PackedValue> ApplyPhase<P> {
    /// Makes `values` the values of tick `now`: publishes `next`, then
    /// applies the tick's input events, then the forces.
    fn tick(&mut self, now: VirtualTime, values: &mut Vec<P>, ph: &mut ProbeHandle) {
        self.publish(now, values);
        self.apply_inputs(now, values, ph);
        self.apply_forces(now, values);
    }

    /// Swaps `next` in as the current values instead of scanning every
    /// net for a change: the source nets, which nothing evaluates, are
    /// carried over first, and only the observed nets are compared (and
    /// recorded when they differ). A forced net's driver keeps computing
    /// its unforced value, so an observed forced net records that value
    /// here and the force at the same tick in [`Self::apply_forces`] —
    /// the order `PackedWaveform::record` needs for the force to win.
    fn publish(&mut self, now: VirtualTime, values: &mut Vec<P>) {
        for s in &self.sources {
            self.next[s.index()] = values[s.index()];
        }
        for (id, w) in self.waveforms.iter_mut() {
            let v = self.next[id.index()];
            if v != values[id.index()] {
                w.record(now, v);
            }
        }
        std::mem::swap(values, &mut self.next);
    }

    /// Applies the packed input events stamped `now`, recording waveforms
    /// and stats like the scalar oblivious kernel does.
    fn apply_inputs(&mut self, now: VirtualTime, values: &mut [P], ph: &mut ProbeHandle) {
        while self.next_input < self.events.len() && self.events[self.next_input].time == now {
            let e = self.events[self.next_input];
            self.next_input += 1;
            self.stats.events_processed += u64::from(e.mask.count_ones());
            if ph.enabled() {
                let remaining = (self.events.len() - self.next_input) as u64;
                let net = e.net.index() as u32;
                ph.emit(now.ticks(), now.ticks(), 0, net, TraceKind::Dequeue, remaining);
            }
            let i = e.net.index();
            let merged = values[i].select(e.value, e.mask);
            if merged != values[i] {
                values[i] = merged;
                if let Some(w) = self.waveforms.get_mut(e.net) {
                    w.record(now, merged);
                }
            }
        }
    }

    /// Overrides the forced nets, recording waveform transitions like any
    /// other value change.
    fn apply_forces(&mut self, now: VirtualTime, values: &mut [P]) {
        for f in &self.forces {
            let i = f.net.index();
            let forced = values[i].select(f.value, f.mask);
            if forced != values[i] {
                values[i] = forced;
                if let Some(w) = self.waveforms.get_mut(f.net) {
                    w.record(now, forced);
                }
            }
        }
    }
}

/// The packed sequential state, indexed by `Op::seq_slot`.
struct SeqState<P> {
    prev_clk: Vec<P>,
    q: Vec<P>,
}

impl<P: PackedValue> SeqState<P> {
    fn new(cc: &CompiledBlock) -> Self {
        SeqState { prev_clk: vec![P::ALL_ZERO; cc.seq_ops()], q: vec![P::ALL_ZERO; cc.seq_ops()] }
    }
}

/// One worker's part of one schedule section: a contiguous op range, cut
/// into its same-kind runs.
#[derive(Debug, Clone)]
struct Chunk {
    section: usize,
    ops: Range<usize>,
    runs: Vec<(GateKind, Range<usize>)>,
}

/// One worker's part of the schedule.
#[derive(Debug, Clone)]
struct Share {
    worker: usize,
    chunks: Vec<Chunk>,
}

/// Chunks every section contiguously across `workers` shares.
fn shares(cc: &CompiledBlock, workers: usize) -> Vec<Share> {
    let mut shares: Vec<Share> =
        (0..workers).map(|worker| Share { worker, chunks: Vec::new() }).collect();
    for (section, range) in cc.levels().iter().enumerate() {
        let len = range.len();
        for share in &mut shares {
            let lo = range.start + len * share.worker / workers;
            let hi = range.start + len * (share.worker + 1) / workers;
            if lo < hi {
                let runs = cc
                    .runs()
                    .iter()
                    .map(|(kind, r)| (*kind, r.start.max(lo)..r.end.min(hi)))
                    .filter(|(_, r)| !r.is_empty())
                    .collect();
                share.chunks.push(Chunk { section, ops: lo..hi, runs });
            }
        }
    }
    shares
}

/// Evaluates one worker's share of tick `t` against the tick's frozen
/// `values`, writing each op's output to `out[gate]`, with a `Charge` span
/// per section. Returns the number of ops evaluated.
fn eval_share<P: PackedValue>(
    cc: &CompiledBlock,
    share: &Share,
    values: &[P],
    out: &mut [P],
    seq: &mut SeqState<P>,
    ph: &mut ProbeHandle,
    t: u64,
) -> u64 {
    let mut evals = 0u64;
    for chunk in &share.chunks {
        let span_start = if ph.enabled() { ph.now_ns() } else { 0 };
        for (kind, run) in &chunk.runs {
            eval_run(cc, *kind, &cc.ops()[run.clone()], values, out, seq);
        }
        evals += chunk.ops.len() as u64;
        if ph.enabled() {
            let dur = ph.now_ns() - span_start;
            let (worker, section) = (share.worker as u32, chunk.section as u32);
            ph.emit(span_start, t, worker, section, TraceKind::Charge, dur);
        }
    }
    evals
}

/// One same-kind run: match once, then a tight per-op loop.
fn eval_run<P: PackedValue>(
    cc: &CompiledBlock,
    kind: GateKind,
    ops: &[CompiledOp],
    values: &[P],
    out: &mut [P],
    seq: &mut SeqState<P>,
) {
    macro_rules! run {
        (|$ins:ident| $new:expr) => {
            for op in ops {
                let $ins = cc.fanin(op);
                out[op.gate.index()] = $new;
            }
        };
    }
    let at = |id: GateId| values[id.index()];
    let (zero, one) = (P::splat(P::Scalar::ZERO), P::splat(P::Scalar::ONE));
    match kind {
        GateKind::Buf => run!(|ins| at(ins[0])),
        GateKind::Not => run!(|ins| at(ins[0]).not()),
        GateKind::And => run!(|ins| fold(values, ins, one, P::and)),
        GateKind::Nand => run!(|ins| fold(values, ins, one, P::and).not()),
        GateKind::Or => run!(|ins| fold(values, ins, zero, P::or)),
        GateKind::Nor => run!(|ins| fold(values, ins, zero, P::or).not()),
        // Xor reduces without an initial element, like the scalar kernel.
        GateKind::Xor => run!(|ins| ins.iter().map(|&f| at(f)).reduce(P::xor).unwrap_or(zero)),
        GateKind::Xnor => {
            run!(|ins| ins.iter().map(|&f| at(f)).reduce(P::xor).unwrap_or(zero).not());
        }
        GateKind::Mux2 => run!(|ins| P::mux(at(ins[0]), at(ins[1]), at(ins[2]))),
        GateKind::Tribuf => run!(|ins| P::tribuf(at(ins[0]), at(ins[1]))),
        GateKind::Bus => run!(|ins| fold(values, ins, P::splat(P::Scalar::HIGH_Z), P::resolve)),
        GateKind::Dff => {
            for op in ops {
                let (ins, s) = (cc.fanin(op), op.seq_slot as usize);
                let clk = at(ins[0]);
                let q = P::dff(seq.prev_clk[s], clk, at(ins[1]), seq.q[s]);
                seq.prev_clk[s] = clk;
                seq.q[s] = q;
                out[op.gate.index()] = q;
            }
        }
        GateKind::Latch => {
            for op in ops {
                let (ins, s) = (cc.fanin(op), op.seq_slot as usize);
                let en = at(ins[0]);
                let q = P::latch(en, at(ins[1]), seq.q[s]);
                seq.prev_clk[s] = en;
                seq.q[s] = q;
                out[op.gate.index()] = q;
            }
        }
        GateKind::Input | GateKind::Const0 | GateKind::Const1 => {
            unreachable!("sources are never scheduled")
        }
    }
}

#[inline]
fn fold<P: PackedValue>(values: &[P], fanin: &[GateId], init: P, f: fn(P, P) -> P) -> P {
    fanin.iter().fold(init, |acc, &g| f(acc, values[g.index()]))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packed::{PackedBit, PackedLogic4};
    use parsim_core::{SequentialSimulator, Simulator, Stimulus};
    use parsim_logic::Logic4;
    use parsim_netlist::{bench, generate, DelayModel};

    fn differential<P: PackedValue>(circuit: &Circuit, stim: &PackedStimulus, until: u64) {
        let until = VirtualTime::new(until);
        let packed =
            BitSimulator::<P>::new().with_observe(Observe::AllNets).run(circuit, stim, until);
        for k in 0..stim.lanes() {
            let scalar = SequentialSimulator::<P::Scalar>::new()
                .with_observe(Observe::AllNets)
                .run(circuit, stim.lane(k), until);
            if let Some(d) = packed.lane_outcome(k).divergence_from(&scalar) {
                panic!("lane {k} diverged on {}: {d}", circuit.name());
            }
        }
    }

    #[test]
    fn lanes_match_scalar_runs_on_c17() {
        let stim =
            PackedStimulus::new((0..LANES as u64).map(|k| Stimulus::random(k + 1, 7)).collect());
        differential::<PackedBit>(&bench::c17(), &stim, 120);
        differential::<PackedLogic4>(&bench::c17(), &stim, 120);
    }

    #[test]
    fn lanes_match_scalar_runs_on_sequential_circuits() {
        let c = generate::lfsr(6, DelayModel::Unit);
        let stim = PackedStimulus::new(
            (0..16u64).map(|k| Stimulus::quiet(60 + k).with_clock(4)).collect(),
        );
        differential::<PackedBit>(&c, &stim, 180);
        differential::<PackedLogic4>(&c, &stim, 180);
    }

    #[test]
    fn threaded_run_is_bit_identical() {
        let c = generate::random_dag(&generate::RandomDagConfig {
            gates: 220,
            seq_fraction: 0.15,
            seed: 3,
            ..Default::default()
        });
        let stim = PackedStimulus::new(
            (0..LANES as u64).map(|k| Stimulus::random(k + 3, 8).with_clock(5)).collect(),
        );
        let until = VirtualTime::new(150);
        let one = BitSimulator::<PackedLogic4>::new()
            .with_observe(Observe::AllNets)
            .run(&c, &stim, until);
        for threads in [2, 4] {
            let sharded = BitSimulator::<PackedLogic4>::new()
                .with_observe(Observe::AllNets)
                .with_threads(threads)
                .run(&c, &stim, until);
            assert_eq!(sharded.final_values, one.final_values, "{threads} threads");
            assert_eq!(sharded.waveforms, one.waveforms, "{threads} threads");
        }
    }

    /// The deep-DAG contract of the swap-not-scan loop: on a circuit with
    /// hundreds of levels (two schedule sections all the same), observing
    /// primary outputs only and forcing three of them, the inline run, the
    /// 2- and 4-thread sharded runs and 64 scalar runs of the rewired
    /// circuits agree — and every worker still charges every section.
    #[test]
    fn deep_dag_inline_sharded_and_scalar_runs_agree_with_forced_outputs() {
        use parsim_core::fault::{inject, StuckAtFault};
        use parsim_netlist::Levelization;

        let c = generate::random_dag(&generate::RandomDagConfig {
            gates: 1600,
            inputs: 16,
            locality: 0.98,
            seq_fraction: 0.1,
            seed: 77,
            ..Default::default()
        });
        assert!(Levelization::of(&c).depth() >= 200, "depth {}", Levelization::of(&c).depth());
        let block = CompiledBlock::compile(&c);
        let (sections, ops) = (block.levels().len(), block.ops().len() as u64);
        assert_eq!(sections, 2, "a sequential and a combinational section");

        let stim = PackedStimulus::new(
            (0..LANES as u64).map(|k| Stimulus::random(k + 31, 6).with_clock(5)).collect(),
        );
        let until = VirtualTime::new(70);
        // Lane → stuck primary output; two lanes share a net.
        let outputs = c.outputs();
        let faults: Vec<(usize, StuckAtFault)> = vec![
            (3, StuckAtFault { net: outputs[0], value: true }),
            (17, StuckAtFault { net: outputs[0], value: false }),
            (40, StuckAtFault { net: outputs[outputs.len() / 2], value: true }),
            (63, StuckAtFault { net: outputs[outputs.len() - 1], value: false }),
        ];
        let mut forces: Vec<PackedForce<PackedLogic4>> = Vec::new();
        for &(k, fault) in &faults {
            assert!(!c.kind(fault.net).is_source(), "the force must fight a driver");
            if !forces.iter().any(|f| f.net == fault.net) {
                forces.push(PackedForce { net: fault.net, mask: 0, value: PackedLogic4::ALL_ZERO });
            }
            let f = forces.iter_mut().find(|f| f.net == fault.net).expect("pushed above");
            f.mask |= 1 << k;
            f.value.set_lane(k, Logic4::from_bool(fault.value));
        }

        let run = |threads: usize| {
            let probe = Probe::enabled();
            let out = BitSimulator::<PackedLogic4>::new()
                .with_threads(threads)
                .with_probe(probe.clone())
                .run_events_forced(&c, stim.events(&c, until), LANES, until, &forces);
            // One `Charge` span per tick, per section, per worker.
            let mut charges = std::collections::BTreeMap::new();
            for r in probe.take_trace().records().iter().filter(|r| r.kind == TraceKind::Charge) {
                *charges.entry((r.processor, r.lp)).or_insert(0u64) += 1;
            }
            let want: std::collections::BTreeMap<(u32, u32), u64> = (0..threads as u32)
                .flat_map(|w| (0..sections as u32).map(move |s| ((w, s), until.ticks())))
                .collect();
            assert_eq!(charges, want, "{threads} threads");
            assert_eq!(out.stats.gate_evaluations, until.ticks() * ops);
            out
        };
        let inline = run(1);
        assert_eq!(inline.waveforms.len(), outputs.len(), "primary outputs only");
        for threads in [2, 4] {
            let sharded = run(threads);
            assert_eq!(sharded.final_values, inline.final_values, "{threads} threads");
            assert_eq!(sharded.waveforms, inline.waveforms, "{threads} threads");
        }

        let free = BitSimulator::<PackedLogic4>::new().run(&c, &stim, until);
        for &(k, fault) in &faults {
            let unforced = free.waveforms[&fault.net].lane_waveform(k);
            assert!(unforced.toggle_count() > 0, "vacuous force on lane {k}: the net never moves");
        }
        for k in 0..LANES {
            // The scalar twin of lane `k`: the circuit rewired around its
            // fault, if it has one.
            let faulty = faults.iter().find(|&&(lane, _)| lane == k).map(|&(_, f)| inject(&c, f));
            let twin = faulty.as_ref().unwrap_or(&c);
            let scalar = SequentialSimulator::<Logic4>::new().run(twin, stim.lane(k), until);
            for (po, twin_po) in outputs.iter().zip(twin.outputs()) {
                assert_eq!(
                    inline.waveforms[po].lane_waveform(k),
                    scalar.waveforms[twin_po],
                    "lane {k}, output {po}"
                );
            }
        }
    }

    #[test]
    fn probe_does_not_perturb_results() {
        let c = bench::s27ish();
        let stim = PackedStimulus::new(
            (0..8u64).map(|k| Stimulus::random(k + 9, 6).with_clock(4)).collect(),
        );
        let until = VirtualTime::new(100);
        let plain = BitSimulator::<PackedLogic4>::new()
            .with_observe(Observe::AllNets)
            .run(&c, &stim, until);
        let probe = Probe::enabled();
        let probed = BitSimulator::<PackedLogic4>::new()
            .with_observe(Observe::AllNets)
            .with_probe(probe.clone())
            .run(&c, &stim, until);
        assert_eq!(plain.final_values, probed.final_values);
        assert_eq!(plain.waveforms, probed.waveforms);
        let trace = probe.take_trace();
        assert!(trace.records().iter().any(|r| r.kind == TraceKind::GateEval));
        assert!(trace.records().iter().any(|r| r.kind == TraceKind::Charge));
    }

    #[test]
    fn x_seeded_lanes_propagate_without_touching_boolean_lanes() {
        // Seed X at t = 0 on one primary input for the upper half of the
        // lanes. The boolean lanes must stay bit-identical to scalar runs;
        // the seeded lanes must show the X actually propagating.
        let c = bench::c17();
        let lanes = 16usize;
        let x_mask: u64 = 0xFF00; // lanes 8..16
        let stim =
            PackedStimulus::new((0..lanes as u64).map(|k| Stimulus::random(k + 5, 11)).collect());
        let until = VirtualTime::new(90);
        let mut events = stim.events::<PackedLogic4>(&c, until);
        let seeded = c.inputs()[0];
        let mut value = PackedLogic4::ALL_ZERO;
        for k in 8..lanes {
            value.set_lane(k, Logic4::X);
        }
        events.push(PackedEvent { time: VirtualTime::ZERO, net: seeded, mask: x_mask, value });
        let packed = BitSimulator::<PackedLogic4>::new()
            .with_observe(Observe::AllNets)
            .run_events(&c, events, lanes, until);
        for k in 0..8 {
            let scalar = SequentialSimulator::<Logic4>::new().with_observe(Observe::AllNets).run(
                &c,
                stim.lane(k),
                until,
            );
            assert_eq!(packed.lane_outcome(k).divergence_from(&scalar), None, "lane {k}");
        }
        let x_reached_somewhere = (8..lanes).any(|k| {
            c.ids().any(|id| {
                packed.waveforms[&id]
                    .lane_waveform(k)
                    .transitions()
                    .iter()
                    .any(|&(_, v)| v.is_unknown())
            })
        });
        assert!(x_reached_somewhere, "seeded X never propagated");
    }

    #[test]
    fn evaluation_count_is_words_times_ticks() {
        let c = bench::c17(); // 6 evaluating gates
        let stim = PackedStimulus::new(vec![Stimulus::random_with_toggle(1, 10, 0.0); 64]);
        let out = BitSimulator::<PackedBit>::new().run(&c, &stim, VirtualTime::new(100));
        assert_eq!(out.stats.gate_evaluations, 6 * 100);
        assert_eq!(out.lanes, 64);
    }

    #[test]
    #[should_panic(expected = "unit gate delays")]
    fn rejects_non_unit_delays() {
        let c = generate::ripple_adder(2, DelayModel::PerKind);
        let stim = PackedStimulus::new(vec![Stimulus::random(1, 5)]);
        BitSimulator::<PackedBit>::new().run(&c, &stim, VirtualTime::new(50));
    }
}
