//! The bit-parallel compiled oblivious kernel.

use std::collections::BTreeMap;
use std::marker::PhantomData;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, RwLock};

use parsim_core::{Observe, SimStats};
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
/// The kernel compiles the circuit once into a levelized straight-line
/// schedule ([`CompiledBlock`]) and then, like [`ObliviousSimulator`],
/// evaluates every gate at every tick with double buffering — tick `t`
/// values are a pure function of tick `t − 1` values, i.e. unit-delay
/// semantics. The packed operations are lane-exact, so **lane `k` of a
/// packed run is bit-identical to a scalar run driven by stimulus lane `k`
/// alone** (waveforms included); the differential suite compares packed
/// runs against 64 [`SequentialSimulator`] runs.
///
/// Wide schedules can optionally be sharded across threads
/// ([`with_threads`](BitSimulator::with_threads)): each level's ops are
/// chunked over the `parsim-runtime` worker pool, workers evaluate their
/// chunks against a frozen value snapshot, and worker 0 applies the
/// results in deterministic schedule order — the threaded run is
/// bit-identical to the single-threaded one.
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
    /// packed input event, and — per tick, per level, per worker — a
    /// `Charge` span (`lp` = level index, `arg` = span nanoseconds) for
    /// the level's evaluation work.
    pub fn with_probe(mut self, probe: Probe) -> Self {
        self.probe = probe;
        self
    }

    /// Shards each level's ops across `threads` workers on the
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
        let waveforms: BTreeMap<GateId, PackedWaveform<P>> = circuit
            .ids()
            .filter(|&id| self.observe.wants(circuit, id))
            .map(|id| (id, PackedWaveform::new(P::ALL_ZERO)))
            .collect();
        let run = if self.threads > 1 {
            self.run_sharded(cc, events, forces.to_vec(), waveforms, until)
        } else {
            self.run_inline(&cc, &events, forces, waveforms, until)
        };
        let (final_values, waveforms, stats) = run;
        PackedOutcome { final_values, waveforms, end_time: until, stats, lanes }
    }

    /// The single-threaded hot loop.
    fn run_inline(
        &self,
        cc: &CompiledBlock,
        events: &[PackedEvent<P>],
        forces: &[PackedForce<P>],
        mut waveforms: BTreeMap<GateId, PackedWaveform<P>>,
        until: VirtualTime,
    ) -> (Vec<P>, BTreeMap<GateId, PackedWaveform<P>>, SimStats) {
        let n = cc.nets();
        let mut values = vec![P::ALL_ZERO; n];
        // `pending[g]` is the output computed at the previous tick, applied
        // this tick (unit delay). Seeding it with the initial values makes
        // the very first application a no-op, like the scalar kernel.
        let mut pending = vec![P::ALL_ZERO; n];
        let mut seq_prev = vec![P::ALL_ZERO; cc.seq_ops()];
        let mut seq_q = vec![P::ALL_ZERO; cc.seq_ops()];
        let mut stats = SimStats::default();
        let mut ph = self.probe.handle();
        let mut next_input = 0usize;

        let mut t = 0u64;
        loop {
            let now = VirtualTime::new(t);
            for op in cc.ops() {
                let i = op.gate.index();
                let v = pending[i];
                if v != values[i] {
                    values[i] = v;
                    if let Some(w) = waveforms.get_mut(&op.gate) {
                        w.record(now, v);
                    }
                }
            }
            apply_inputs(
                events,
                &mut next_input,
                now,
                &mut values,
                &mut waveforms,
                &mut stats,
                &mut ph,
            );
            apply_forces(forces, now, &mut values, &mut waveforms);
            if now >= until {
                break;
            }
            for (level, range) in cc.levels().iter().enumerate() {
                let span_start = if ph.enabled() { ph.now_ns() } else { 0 };
                for op in &cc.ops()[range.clone()] {
                    pending[op.gate.index()] = eval_op(cc, op, &values, &mut seq_prev, &mut seq_q);
                }
                if ph.enabled() {
                    let dur = ph.now_ns() - span_start;
                    ph.emit(span_start, t, 0, level as u32, TraceKind::Charge, dur);
                }
            }
            stats.gate_evaluations += cc.ops().len() as u64;
            if ph.enabled() {
                ph.emit(t, t, 0, NO_LP, TraceKind::GateEval, cc.ops().len() as u64);
            }
            t += 1;
        }
        (values, waveforms, stats)
    }

    /// The level-sharded loop: `threads` workers on the **persistent**
    /// runtime pool ([`parsim_runtime::global_pool`]) evaluate disjoint
    /// chunks of every level against a frozen snapshot of the tick's
    /// values; worker 0 applies all results in schedule order, so the
    /// outcome is bit-identical to [`run_inline`]. Repeated sharded runs
    /// (a bench sweep, a fault campaign) reuse the pool's threads instead
    /// of spawning a fresh set per run.
    fn run_sharded(
        &self,
        cc: CompiledBlock,
        events: Vec<PackedEvent<P>>,
        forces: Vec<PackedForce<P>>,
        waveforms: BTreeMap<GateId, PackedWaveform<P>>,
        until: VirtualTime,
    ) -> (Vec<P>, BTreeMap<GateId, PackedWaveform<P>>, SimStats) {
        let workers = self.threads;
        let n = cc.nets();
        // Chunk every level contiguously across the workers.
        let mut chunks: Vec<Vec<(usize, std::ops::Range<usize>)>> = vec![Vec::new(); workers];
        for (level, range) in cc.levels().iter().enumerate() {
            let len = range.len();
            for (w, chunk) in chunks.iter_mut().enumerate() {
                let lo = range.start + len * w / workers;
                let hi = range.start + len * (w + 1) / workers;
                if lo < hi {
                    chunk.push((level, lo..hi));
                }
            }
        }
        let owner_of: Vec<usize> = {
            let mut owner = vec![0usize; cc.ops().len()];
            for (w, chunk) in chunks.iter().enumerate() {
                for (_, r) in chunk {
                    for slot in &mut owner[r.clone()] {
                        *slot = w;
                    }
                }
            }
            owner
        };

        // Each worker owns a full-width pending buffer plus the sequential
        // state of its ops (globally indexed; only owned slots are used).
        struct Shard<P> {
            pending: Vec<P>,
            seq_prev: Vec<P>,
            seq_q: Vec<P>,
        }
        // Worker 0 owns the apply phase: waveforms, input cursor, stats.
        struct ApplyState<P> {
            waveforms: BTreeMap<GateId, PackedWaveform<P>>,
            next_input: usize,
            stats: SimStats,
        }
        // Everything the workers touch, owned (`'static`) and shared via
        // `Arc` — persistent pool threads outlive this call's borrows.
        struct Shared<P: PackedValue> {
            cc: CompiledBlock,
            events: Vec<PackedEvent<P>>,
            forces: Vec<PackedForce<P>>,
            chunks: Vec<Vec<(usize, std::ops::Range<usize>)>>,
            owner_of: Vec<usize>,
            values: RwLock<Vec<P>>,
            shards: Vec<Mutex<Shard<P>>>,
            apply: Mutex<Option<ApplyState<P>>>,
            barrier: RoundBarrier,
            stop: AtomicBool,
            until: VirtualTime,
            probe: Probe,
        }
        let shards: Vec<Mutex<Shard<P>>> = (0..workers)
            .map(|_| {
                Mutex::new(Shard {
                    pending: vec![P::ALL_ZERO; n],
                    seq_prev: vec![P::ALL_ZERO; cc.seq_ops()],
                    seq_q: vec![P::ALL_ZERO; cc.seq_ops()],
                })
            })
            .collect();
        let shared = std::sync::Arc::new(Shared {
            cc,
            events,
            forces,
            chunks,
            owner_of,
            values: RwLock::new(vec![P::ALL_ZERO; n]),
            shards,
            apply: Mutex::new(Some(ApplyState {
                waveforms,
                next_input: 0,
                stats: SimStats::default(),
            })),
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
                // pending buffer into the shared values, in schedule order.
                if w == 0 {
                    let st = state.as_mut().expect("worker 0 owns the apply state");
                    let mut vals = sh.values.write().expect("values lock");
                    let now = VirtualTime::new(t);
                    {
                        let shards: Vec<_> = sh.shards.iter().map(lock_recover).collect();
                        for (i, op) in sh.cc.ops().iter().enumerate() {
                            let g = op.gate.index();
                            let v = shards[sh.owner_of[i]].pending[g];
                            if v != vals[g] {
                                vals[g] = v;
                                if let Some(wave) = st.waveforms.get_mut(&op.gate) {
                                    wave.record(now, v);
                                }
                            }
                        }
                    }
                    apply_inputs(
                        &sh.events,
                        &mut st.next_input,
                        now,
                        &mut vals,
                        &mut st.waveforms,
                        &mut st.stats,
                        &mut ph,
                    );
                    apply_forces(&sh.forces, now, &mut vals, &mut st.waveforms);
                    if now >= sh.until {
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
                    let shard = &mut *shard;
                    for (level, range) in &sh.chunks[w] {
                        let span_start = if ph.enabled() { ph.now_ns() } else { 0 };
                        for op in &sh.cc.ops()[range.clone()] {
                            shard.pending[op.gate.index()] =
                                eval_op(&sh.cc, op, &vals, &mut shard.seq_prev, &mut shard.seq_q);
                        }
                        evals += range.len() as u64;
                        if ph.enabled() {
                            let dur = ph.now_ns() - span_start;
                            ph.emit(span_start, t, w as u32, *level as u32, TraceKind::Charge, dur);
                        }
                    }
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
        (values, st.waveforms, st.stats)
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

/// Overrides the forced nets after an apply phase, recording waveform
/// transitions like any other value change.
fn apply_forces<P: PackedValue>(
    forces: &[PackedForce<P>],
    now: VirtualTime,
    values: &mut [P],
    waveforms: &mut BTreeMap<GateId, PackedWaveform<P>>,
) {
    for f in forces {
        let i = f.net.index();
        let forced = values[i].select(f.value, f.mask);
        if forced != values[i] {
            values[i] = forced;
            if let Some(w) = waveforms.get_mut(&f.net) {
                w.record(now, forced);
            }
        }
    }
}

/// All populated lanes as a mask.
fn lanes_mask(lanes: usize) -> u64 {
    if lanes >= LANES {
        u64::MAX
    } else {
        (1u64 << lanes) - 1
    }
}

/// Applies the packed input events stamped `now`, recording waveforms and
/// stats like the scalar oblivious kernel does.
fn apply_inputs<P: PackedValue>(
    events: &[PackedEvent<P>],
    next_input: &mut usize,
    now: VirtualTime,
    values: &mut [P],
    waveforms: &mut BTreeMap<GateId, PackedWaveform<P>>,
    stats: &mut SimStats,
    ph: &mut ProbeHandle,
) {
    while *next_input < events.len() && events[*next_input].time == now {
        let e = events[*next_input];
        *next_input += 1;
        stats.events_processed += u64::from(e.mask.count_ones());
        if ph.enabled() {
            let remaining = (events.len() - *next_input) as u64;
            ph.emit(
                now.ticks(),
                now.ticks(),
                0,
                e.net.index() as u32,
                TraceKind::Dequeue,
                remaining,
            );
        }
        let i = e.net.index();
        let merged = values[i].select(e.value, e.mask);
        if merged != values[i] {
            values[i] = merged;
            if let Some(w) = waveforms.get_mut(&e.net) {
                w.record(now, merged);
            }
        }
    }
}

/// Evaluates one compiled op against the tick's frozen values.
fn eval_op<P: PackedValue>(
    cc: &CompiledBlock,
    op: &CompiledOp,
    values: &[P],
    seq_prev: &mut [P],
    seq_q: &mut [P],
) -> P {
    let fanin = cc.fanin(op);
    let read = |k: usize| values[fanin[k].index()];
    match op.kind {
        GateKind::Buf => read(0),
        GateKind::Not => read(0).not(),
        GateKind::And => fold(values, fanin, P::splat(P::Scalar::ONE), P::and),
        GateKind::Nand => fold(values, fanin, P::splat(P::Scalar::ONE), P::and).not(),
        GateKind::Or => fold(values, fanin, P::splat(P::Scalar::ZERO), P::or),
        GateKind::Nor => fold(values, fanin, P::splat(P::Scalar::ZERO), P::or).not(),
        // Xor reduces without an initial element, like the scalar kernel.
        GateKind::Xor => fanin
            .iter()
            .map(|&f| values[f.index()])
            .reduce(P::xor)
            .unwrap_or(P::splat(P::Scalar::ZERO)),
        GateKind::Xnor => fanin
            .iter()
            .map(|&f| values[f.index()])
            .reduce(P::xor)
            .unwrap_or(P::splat(P::Scalar::ZERO))
            .not(),
        GateKind::Mux2 => P::mux(read(0), read(1), read(2)),
        GateKind::Tribuf => P::tribuf(read(0), read(1)),
        GateKind::Bus => fold(values, fanin, P::splat(P::Scalar::HIGH_Z), P::resolve),
        GateKind::Dff => {
            let s = op.seq_slot as usize;
            let clk = read(0);
            let q = P::dff(seq_prev[s], clk, read(1), seq_q[s]);
            seq_prev[s] = clk;
            seq_q[s] = q;
            q
        }
        GateKind::Latch => {
            let s = op.seq_slot as usize;
            let en = read(0);
            let q = P::latch(en, read(1), seq_q[s]);
            seq_prev[s] = en;
            seq_q[s] = q;
            q
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
