//! The oblivious (compiled-mode) kernel.

use std::marker::PhantomData;

use parsim_event::VirtualTime;
use parsim_logic::{GateKind, LogicValue};
use parsim_netlist::{Circuit, GateId};
use parsim_trace::{Probe, TraceKind, NO_LP};

use crate::{
    evaluate_gate, GateRuntime, Observe, SimOutcome, SimStats, Simulator, Stimulus, WaveRecorder,
    Waveform,
};

/// The §IV *oblivious* algorithm: no event queue at all.
///
/// "At every point in simulated time, every LP is evaluated, whether or not
/// its inputs have changed. This completely eliminates the need for an event
/// queue ... At low activity levels, redundant evaluations are an enormous
/// overhead. At higher activity levels, the elimination of the event queue
/// (and its associated overhead) can lead to a performance advantage."
///
/// The implementation is double-buffered: tick `t` values are a pure
/// function of tick `t − 1` values, which is exactly unit-delay semantics —
/// so for unit-delay circuits this kernel is bit-identical to the
/// event-driven reference (and is differential-tested against it).
/// Experiment E6 sweeps input activity to find the crossover the paper
/// describes.
///
/// # Panics
///
/// [`Simulator::run`] panics if any non-source gate has a delay other than
/// one tick: oblivious evaluation has no way to represent heterogeneous
/// delays.
///
/// # Examples
///
/// ```
/// use parsim_core::{ObliviousSimulator, SequentialSimulator, Simulator, Stimulus, Observe};
/// use parsim_event::VirtualTime;
/// use parsim_logic::Bit;
/// use parsim_netlist::bench;
///
/// let c = bench::c17();
/// let stim = Stimulus::random(3, 5);
/// let until = VirtualTime::new(60);
/// let obl = ObliviousSimulator::<Bit>::new().with_observe(Observe::AllNets);
/// let evd = SequentialSimulator::<Bit>::new().with_observe(Observe::AllNets);
/// let a = obl.run(&c, &stim, until);
/// let b = evd.run(&c, &stim, until);
/// assert_eq!(a.divergence_from(&b), None);
/// ```
#[derive(Debug, Clone)]
pub struct ObliviousSimulator<V> {
    observe: Observe,
    probe: Probe,
    compiled: bool,
    _values: PhantomData<V>,
}

impl<V: LogicValue> ObliviousSimulator<V> {
    /// Creates the kernel.
    pub fn new() -> Self {
        ObliviousSimulator {
            observe: Observe::Outputs,
            probe: Probe::disabled(),
            compiled: false,
            _values: PhantomData,
        }
    }

    /// Selects which nets to record waveforms for.
    pub fn with_observe(mut self, observe: Observe) -> Self {
        self.observe = observe;
        self
    }

    /// Lowers the circuit to [`parsim_compile`] bytecode once up front and
    /// evaluates each tick with `execute_full` instead of the generic
    /// `evaluate_gate` walk. Bit-identical to the interpreted default; the
    /// per-tick double buffering is unchanged.
    pub fn with_compiled(mut self) -> Self {
        self.compiled = true;
        self
    }

    /// Attaches a trace probe. The oblivious kernel evaluates every gate at
    /// every tick, so it records one batched `GateEval` per tick (`arg` =
    /// evaluation count) plus a `Dequeue` per applied input event — there is
    /// no event queue to report depths for.
    pub fn with_probe(mut self, probe: Probe) -> Self {
        self.probe = probe;
        self
    }
}

impl<V: LogicValue> Default for ObliviousSimulator<V> {
    fn default() -> Self {
        Self::new()
    }
}

impl<V: LogicValue> Simulator<V> for ObliviousSimulator<V> {
    fn name(&self) -> String {
        "oblivious".to_owned()
    }

    fn run(&self, circuit: &Circuit, stimulus: &Stimulus, until: VirtualTime) -> SimOutcome<V> {
        for (_, g) in circuit.iter() {
            assert!(
                g.kind().is_source() || g.delay().ticks() == 1,
                "oblivious simulation requires unit gate delays, found {} on a {}",
                g.delay(),
                g.kind()
            );
        }
        let n = circuit.len();
        let mut values = vec![V::ZERO; n];
        let mut runtime = vec![GateRuntime::<V>::default(); n];
        // SoA mirror of `runtime`, used only on the compiled path.
        let (mut q, mut prev_clk, mut last_driven) =
            (vec![V::ZERO; n], vec![V::ZERO; n], vec![V::ZERO; n]);
        let block = self.compiled.then(|| {
            let start = std::time::Instant::now();
            let b = parsim_compile::CompiledBlock::compile(circuit);
            (b, u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX))
        });
        let mut stats = SimStats::default();
        let mut waveforms = WaveRecorder::observing(circuit, self.observe, Waveform::new(V::ZERO));

        let mut input_events = stimulus.events::<V>(circuit, until);
        // Constants behave like a t = 0 input event.
        for (id, g) in circuit.iter() {
            if g.kind() == GateKind::Const1 {
                input_events.push(parsim_event::Event::new(VirtualTime::ZERO, id, V::ONE));
            }
        }
        input_events.sort_by_key(|e| (e.time, e.net.index()));
        let mut next_input = 0usize;

        let evaluating: Vec<_> =
            circuit.iter().filter(|(_, g)| !g.kind().is_source()).map(|(id, _)| id).collect();

        // The outputs the previous tick's evaluation changed — the
        // publish-on-change list both evaluation paths emit — to be applied
        // this tick (unit delay). Each gate appears at most once.
        let mut pending: Vec<(GateId, V)> = Vec::new();
        let mut ph = self.probe.handle();
        if let Some((_, compile_ns)) = &block {
            if ph.enabled() {
                ph.emit(0, 0, 0, NO_LP, TraceKind::Compile, *compile_ns);
            }
        }

        let mut t = 0u64;
        loop {
            let now = VirtualTime::new(t);
            // Apply last tick's gate outputs.
            for (id, v) in pending.drain(..) {
                if values[id.index()] != v {
                    values[id.index()] = v;
                    if let Some(w) = waveforms.get_mut(id) {
                        w.record(now, v);
                    }
                }
            }
            // Apply this tick's input events.
            while next_input < input_events.len() && input_events[next_input].time == now {
                let e = input_events[next_input];
                next_input += 1;
                stats.events_processed += 1;
                if ph.enabled() {
                    let remaining = (input_events.len() - next_input) as u64;
                    ph.emit(t, t, 0, e.net.index() as u32, TraceKind::Dequeue, remaining);
                }
                if values[e.net.index()] != e.value {
                    values[e.net.index()] = e.value;
                    if let Some(w) = waveforms.get_mut(e.net) {
                        w.record(now, e.value);
                    }
                }
            }
            if now >= until {
                break;
            }
            // Evaluate every gate, obliviously.
            stats.gate_evaluations += evaluating.len() as u64;
            if let Some((b, _)) = &block {
                let slices = parsim_compile::GateSlices {
                    q: &mut q,
                    prev_clk: &mut prev_clk,
                    last_driven: &mut last_driven,
                };
                parsim_compile::execute_full(b, &values, slices, &mut |id, v, _delay| {
                    pending.push((id, v));
                });
            } else {
                for &id in &evaluating {
                    let out = evaluate_gate(
                        circuit,
                        id,
                        &mut |f| values[f.index()],
                        &mut runtime[id.index()],
                    );
                    pending.extend(out.map(|v| (id, v)));
                }
            }
            if ph.enabled() {
                ph.emit(t, t, 0, NO_LP, TraceKind::GateEval, evaluating.len() as u64);
            }
            t += 1;
        }

        SimOutcome { final_values: values, waveforms: waveforms.into_map(), end_time: until, stats }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SequentialSimulator;
    use parsim_logic::{Bit, Logic4};
    use parsim_netlist::{bench, generate, DelayModel};

    fn equivalent<V: LogicValue>(circuit: &Circuit, stim: &Stimulus, until: u64) {
        let a = ObliviousSimulator::<V>::new().with_observe(Observe::AllNets).run(
            circuit,
            stim,
            VirtualTime::new(until),
        );
        let b = SequentialSimulator::<V>::new().with_observe(Observe::AllNets).run(
            circuit,
            stim,
            VirtualTime::new(until),
        );
        if let Some(d) = a.divergence_from(&b) {
            panic!("oblivious diverged from sequential on {}: {d}", circuit.name());
        }
    }

    #[test]
    fn matches_event_driven_on_c17() {
        equivalent::<Bit>(&bench::c17(), &Stimulus::random(11, 7), 150);
        equivalent::<Logic4>(&bench::c17(), &Stimulus::counting(5), 170);
    }

    #[test]
    fn matches_event_driven_on_sequential_circuits() {
        let c = generate::lfsr(6, DelayModel::Unit);
        equivalent::<Bit>(&c, &Stimulus::quiet(100).with_clock(4), 200);
        let c = generate::counter(4, DelayModel::Unit);
        equivalent::<Bit>(&c, &Stimulus::quiet(100).with_clock(6), 240);
    }

    #[test]
    fn matches_event_driven_on_random_dags() {
        for seed in 0..5 {
            let c = generate::random_dag(&generate::RandomDagConfig {
                gates: 150,
                seq_fraction: 0.15,
                seed,
                ..Default::default()
            });
            equivalent::<Logic4>(&c, &Stimulus::random(seed, 9).with_clock(5), 120);
        }
    }

    #[test]
    fn compiled_matches_interpreted_bit_for_bit() {
        for seed in 0..4 {
            let c = generate::random_dag(&generate::RandomDagConfig {
                gates: 180,
                seq_fraction: 0.2,
                seed,
                ..Default::default()
            });
            let stim = Stimulus::random(seed, 9).with_clock(5);
            let until = VirtualTime::new(130);
            let a = ObliviousSimulator::<Logic4>::new()
                .with_compiled()
                .with_observe(Observe::AllNets)
                .run(&c, &stim, until);
            let b = ObliviousSimulator::<Logic4>::new()
                .with_observe(Observe::AllNets)
                .run(&c, &stim, until);
            if let Some(d) = a.divergence_from(&b) {
                panic!("compiled oblivious diverged from interpreted on {}: {d}", c.name());
            }
            assert_eq!(a.stats.gate_evaluations, b.stats.gate_evaluations);
        }
    }

    #[test]
    fn compiled_evaluation_count_is_gates_times_ticks() {
        let c = bench::c17(); // 6 evaluating gates
        let out = ObliviousSimulator::<Bit>::new().with_compiled().run(
            &c,
            &Stimulus::random_with_toggle(1, 10, 0.0),
            VirtualTime::new(100),
        );
        assert_eq!(out.stats.gate_evaluations, 6 * 100);
    }

    #[test]
    fn evaluation_count_is_gates_times_ticks() {
        let c = bench::c17(); // 6 evaluating gates
        let out = ObliviousSimulator::<Bit>::new().run(
            &c,
            &Stimulus::random_with_toggle(1, 10, 0.0),
            VirtualTime::new(100),
        );
        assert_eq!(out.stats.gate_evaluations, 6 * 100);
    }

    #[test]
    #[should_panic(expected = "unit gate delays")]
    fn rejects_non_unit_delays() {
        let c = generate::ripple_adder(2, DelayModel::PerKind);
        ObliviousSimulator::<Bit>::new().run(&c, &Stimulus::random(1, 5), VirtualTime::new(50));
    }
}
