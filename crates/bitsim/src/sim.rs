//! The bit-parallel compiled oblivious kernel.

use std::marker::PhantomData;

use parsim_compile::{CompiledBlock, Op};
use parsim_core::{Observe, SimStats, WaveRecorder};
use parsim_event::VirtualTime;
use parsim_logic::{GateKind, LogicValue};
use parsim_netlist::{Circuit, GateId};
use parsim_trace::{Probe, ProbeHandle, TraceKind, NO_LP};

use crate::packed::{PackedValue, LANES};
use crate::stimulus::{PackedEvent, PackedOutcome, PackedStimulus, PackedWaveform};

/// The §IV oblivious algorithm, bit-parallel: 64 independent stimulus
/// patterns per machine word, one word-wide gate operation per gate per
/// tick.
///
/// The kernel compiles the circuit once into a straight-line kind-major
/// schedule ([`CompiledBlock`]) and then evaluates every gate at every
/// tick with double buffering — tick `t` values are a pure function of
/// tick `t − 1` values, i.e. unit-delay semantics: evaluation fills a
/// second full value buffer, the observed nets (only those) are compared
/// and recorded, and the buffers swap. The packed operations are
/// lane-exact, so **lane `k` of a packed run is bit-identical to a scalar
/// run driven by stimulus lane `k` alone** (waveforms included); the
/// differential suite compares packed runs against 64
/// [`SequentialSimulator`] runs. At one lane it is the scalar
/// [`ObliviousSimulator`](crate::ObliviousSimulator).
///
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
    _values: PhantomData<P>,
}

impl<P: PackedValue> BitSimulator<P> {
    /// Creates the kernel (observing primary outputs).
    pub fn new() -> Self {
        BitSimulator { observe: Observe::Outputs, probe: Probe::disabled(), _values: PhantomData }
    }

    /// Selects which nets to record waveforms for.
    pub fn with_observe(mut self, observe: Observe) -> Self {
        self.observe = observe;
        self
    }

    /// Attaches a trace probe. The kernel records one batched `GateEval`
    /// per tick (`arg` = packed word evaluations), a `Dequeue` per applied
    /// packed input event, and — per tick, per schedule section — a
    /// `Charge` span (`lp` = section index, `arg` = span nanoseconds).
    pub fn with_probe(mut self, probe: Probe) -> Self {
        self.probe = probe;
        self
    }

    /// The kernel's display name.
    pub fn name(&self) -> String {
        format!("bitsim[{LANES}]")
    }

    /// Runs all lanes of `stimulus` to `until` (inclusive of events stamped
    /// exactly `until`) in one packed pass.
    pub fn run(
        &self,
        circuit: &Circuit,
        stimulus: &PackedStimulus,
        until: VirtualTime,
    ) -> PackedOutcome<P> {
        self.run_events(circuit, stimulus.events::<P>(circuit, until), stimulus.lanes(), until)
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
    ///
    /// Every entry point ends here, so this is where constant-1 nets are
    /// driven: like a `t = 0` input event on every lane.
    pub fn run_events_forced(
        &self,
        circuit: &Circuit,
        mut events: Vec<PackedEvent<P>>,
        lanes: usize,
        until: VirtualTime,
        forces: &[PackedForce<P>],
    ) -> PackedOutcome<P> {
        assert!((1..=LANES).contains(&lanes), "1..={LANES} lanes required, got {lanes}");
        assert_unit_delays(circuit);
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
        events.sort_by_key(|e| (e.time, e.net.index()));
        let cc = CompiledBlock::compile(circuit);
        let mut apply = ApplyPhase {
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
        let mut values = vec![P::ALL_ZERO; cc.nets()];
        let mut seq = SeqState::new(&cc);
        let mut ph = self.probe.handle();
        let evals = cc.ops().len() as u64;
        let mut t = 0u64;
        loop {
            apply.tick(VirtualTime::new(t), &mut values, &mut ph);
            if t >= until.ticks() {
                break;
            }
            eval_tick(&cc, &values, &mut apply.next, &mut seq, &mut ph, t);
            apply.stats.gate_evaluations += evals;
            if ph.enabled() {
                ph.emit(t, t, 0, NO_LP, TraceKind::GateEval, evals);
            }
            t += 1;
        }
        PackedOutcome {
            final_values: values,
            waveforms: apply.waveforms.into_map(),
            end_time: until,
            stats: apply.stats,
            lanes,
        }
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

/// The oblivious precondition: the kernel is double-buffered (tick `t`
/// values are a pure function of tick `t − 1` values), which is only the
/// circuit's behaviour when every gate takes exactly one tick.
///
/// # Panics
///
/// Panics if any non-source gate has a delay other than one tick.
fn assert_unit_delays(circuit: &Circuit) {
    for (_, g) in circuit.iter() {
        assert!(
            g.kind().is_source() || g.delay().ticks() == 1,
            "oblivious simulation requires unit gate delays, found {} on a {}",
            g.delay(),
            g.kind()
        );
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

/// Everything that happens between two evaluations: the buffer evaluation
/// fills, the observed waveforms, and the input and force streams.
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

/// Evaluates tick `t` against the tick's frozen `values`, writing each
/// op's output to `out[gate]`, section by section with a `Charge` span
/// (`lp` = section index) per section.
fn eval_tick<P: PackedValue>(
    cc: &CompiledBlock,
    values: &[P],
    out: &mut [P],
    seq: &mut SeqState<P>,
    ph: &mut ProbeHandle,
    t: u64,
) {
    // Kind runs never cross a section boundary, so each section takes the
    // next runs up to its end.
    let mut runs = cc.runs().iter().peekable();
    for (section, range) in cc.sections().iter().enumerate() {
        let span_start = if ph.enabled() { ph.now_ns() } else { 0 };
        while let Some((kind, run)) = runs.next_if(|(_, r)| r.end <= range.end) {
            eval_run(cc, *kind, &cc.ops()[run.clone()], values, out, seq);
        }
        if ph.enabled() {
            let dur = ph.now_ns() - span_start;
            ph.emit(span_start, t, 0, section as u32, TraceKind::Charge, dur);
        }
    }
}

/// One same-kind run: match once, then a tight per-op loop.
fn eval_run<P: PackedValue>(
    cc: &CompiledBlock,
    kind: GateKind,
    ops: &[Op],
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
        GateKind::Xor => run!(|ins| reduce_xor(values, ins)),
        GateKind::Xnor => run!(|ins| reduce_xor(values, ins).not()),
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

/// `init` combined with each fanin value through `f`, left to right. Up
/// to four fanins are read without a loop; a kind run is ordered by fanin
/// count, so op after op takes the same arm.
#[inline]
fn fold<P: PackedValue>(values: &[P], fanin: &[GateId], init: P, f: fn(P, P) -> P) -> P {
    let at = |g: &GateId| values[g.index()];
    match fanin {
        [a] => f(init, at(a)),
        [a, b] => f(f(init, at(a)), at(b)),
        [a, b, c] => f(f(f(init, at(a)), at(b)), at(c)),
        [a, b, c, d] => f(f(f(f(init, at(a)), at(b)), at(c)), at(d)),
        _ => fanin.iter().fold(init, |acc, g| f(acc, at(g))),
    }
}

/// Xor over the fanin values, without an initial element, like the scalar
/// kernel: the first fanin starts the fold.
#[inline]
fn reduce_xor<P: PackedValue>(values: &[P], fanin: &[GateId]) -> P {
    match fanin.split_first() {
        Some((first, rest)) => fold(values, rest, values[first.index()], P::xor),
        None => P::splat(P::Scalar::ZERO),
    }
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

    /// The deep-DAG contract of the swap-not-scan loop: on a circuit with
    /// hundreds of levels (two schedule sections all the same), observing
    /// primary outputs only and forcing three of them, the packed run and
    /// 64 scalar runs of the rewired circuits agree — and every section is
    /// charged exactly once per tick.
    #[test]
    fn deep_dag_inline_and_scalar_runs_agree_with_forced_outputs() {
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
        let (sections, ops) = (block.sections().len(), block.ops().len() as u64);
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

        let probe = Probe::enabled();
        let inline = BitSimulator::<PackedLogic4>::new()
            .with_probe(probe.clone())
            .run_events_forced(&c, stim.events(&c, until), LANES, until, &forces);
        // One `Charge` span per tick, per section.
        let mut charges = std::collections::BTreeMap::new();
        for r in probe.take_trace().records().iter().filter(|r| r.kind == TraceKind::Charge) {
            *charges.entry((r.processor, r.lp)).or_insert(0u64) += 1;
        }
        let want: std::collections::BTreeMap<(u32, u32), u64> =
            (0..sections as u32).map(|s| ((0, s), until.ticks())).collect();
        assert_eq!(charges, want);
        assert_eq!(inline.stats.gate_evaluations, until.ticks() * ops);
        assert_eq!(inline.waveforms.len(), outputs.len(), "primary outputs only");

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
