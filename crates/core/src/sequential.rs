//! The sequential event-driven reference kernel.

use std::marker::PhantomData;

use parsim_event::{
    BinaryHeapQueue, CalendarQueue, Event, EventQueue, PairingHeapQueue, VirtualTime,
};
use parsim_logic::{GateKind, LogicValue};
use parsim_netlist::{Circuit, GateId};
use parsim_trace::{Probe, TraceKind};

use crate::{
    evaluate_gate, GateRuntime, Observe, SimOutcome, SimStats, Simulator, Stimulus, WaveRecorder,
    Waveform,
};

/// Which pending-event-set implementation the sequential kernel uses.
///
/// All three drain identically (deterministic `(time, net, sequence)`
/// ordering), so this is purely a performance choice — see the
/// `event.*_ns_per_op` rows of the repo's `benchmark/` crate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum QueueKind {
    /// `std::collections::BinaryHeap` (the default).
    #[default]
    BinaryHeap,
    /// Brown calendar queue.
    Calendar,
    /// Pairing heap.
    PairingHeap,
}

/// The classic single-event-queue, event-driven logic simulator.
///
/// This is the reference ("oracle") kernel: every parallel kernel in the
/// workspace is differential-tested against it. It follows the two-phase
/// discipline all kernels share: pop *all* events carrying the current
/// timestamp, apply them to their nets, then evaluate each affected gate
/// exactly once (in ascending gate-id order) and schedule output events
/// `delay` ticks in the future.
///
/// # Examples
///
/// ```
/// use parsim_core::{SequentialSimulator, Simulator, Stimulus};
/// use parsim_event::VirtualTime;
/// use parsim_logic::Bit;
/// use parsim_netlist::{generate, DelayModel};
///
/// // A 4-bit counter counts clock edges.
/// let c = generate::counter(4, DelayModel::Unit);
/// let stim = Stimulus::quiet(100).with_clock(10);
/// let out = SequentialSimulator::<Bit>::new().run(&c, &stim, VirtualTime::new(205));
/// // 10 rising edges by t = 205 (at 10, 30, ..., 190) → count = 10 = 0b1010.
/// let bits: Vec<Bit> = out.output_values(&c);
/// assert_eq!(bits.iter().rev().map(|b| b.to_string()).collect::<String>(), "1010");
/// ```
#[derive(Debug, Clone)]
pub struct SequentialSimulator<V> {
    observe: Observe,
    queue: QueueKind,
    probe: Probe,
    _values: PhantomData<V>,
}

impl<V: LogicValue> SequentialSimulator<V> {
    /// Creates the kernel with default settings (binary-heap queue,
    /// primary-output waveforms).
    pub fn new() -> Self {
        SequentialSimulator {
            observe: Observe::Outputs,
            queue: QueueKind::BinaryHeap,
            probe: Probe::disabled(),
            _values: PhantomData,
        }
    }

    /// Attaches a trace probe. When enabled, the run records every gate
    /// evaluation and every queue operation (with queue depth) on a
    /// virtual-time-tick timeline, processor 0, LP = gate id. The default
    /// disabled probe costs one predictable branch per would-be record.
    pub fn with_probe(mut self, probe: Probe) -> Self {
        self.probe = probe;
        self
    }

    /// Selects which nets to record waveforms for.
    pub fn with_observe(mut self, observe: Observe) -> Self {
        self.observe = observe;
        self
    }

    /// Uses a calendar queue instead of the binary heap (identical results;
    /// different constants — see the event-queue benchmark).
    pub fn with_calendar_queue(self) -> Self {
        self.with_queue(QueueKind::Calendar)
    }

    /// Selects the pending-event-set implementation.
    pub fn with_queue(mut self, queue: QueueKind) -> Self {
        self.queue = queue;
        self
    }

    /// Runs the simulation and additionally returns the per-gate evaluation
    /// counts — the §III *pre-simulation* activity measurement.
    pub fn run_with_activity(
        &self,
        circuit: &Circuit,
        stimulus: &Stimulus,
        until: VirtualTime,
    ) -> (SimOutcome<V>, Vec<u64>) {
        assert!(
            circuit.min_gate_delay().ticks() >= 1,
            "simulation kernels require nonzero gate delays (once-per-timestamp invariant)"
        );
        let mut queue: Box<dyn EventQueue<V>> = match self.queue {
            QueueKind::BinaryHeap => Box::new(BinaryHeapQueue::new()),
            QueueKind::Calendar => Box::new(CalendarQueue::new()),
            QueueKind::PairingHeap => Box::new(PairingHeapQueue::new()),
        };
        let n = circuit.len();
        let mut values = vec![V::ZERO; n];
        let mut runtime = vec![GateRuntime::<V>::default(); n];
        let mut eval_counts = vec![0u64; n];
        let mut stats = SimStats::default();
        let mut waveforms = WaveRecorder::observing(circuit, self.observe, Waveform::new(V::ZERO));

        let mut ph = self.probe.handle();

        // Initialization: stimulus events plus constant drivers.
        for e in stimulus.events::<V>(circuit, until) {
            let (due, net) = (e.time, e.net);
            queue.push(e);
            stats.events_scheduled += 1;
            if ph.enabled() {
                ph.emit(
                    0,
                    due.ticks(),
                    0,
                    net.index() as u32,
                    TraceKind::Enqueue,
                    queue.len() as u64,
                );
            }
        }
        for (id, g) in circuit.iter() {
            if g.kind() == GateKind::Const1 {
                queue.push(Event::new(VirtualTime::ZERO, id, V::ONE));
                stats.events_scheduled += 1;
                if ph.enabled() {
                    ph.emit(0, 0, 0, id.index() as u32, TraceKind::Enqueue, queue.len() as u64);
                }
            }
        }

        // Dirty-gate scratch: `stamp[g] == stamp_counter` means already
        // queued for evaluation this timestamp.
        let mut stamp = vec![u64::MAX; n];
        let mut stamp_counter = 0u64;
        let mut dirty: Vec<GateId> = Vec::new();

        let mut step = |now: VirtualTime,
                        initial: bool,
                        queue: &mut Box<dyn EventQueue<V>>,
                        values: &mut Vec<V>,
                        runtime: &mut Vec<GateRuntime<V>>,
                        stats: &mut SimStats,
                        waveforms: &mut WaveRecorder<Waveform<V>>| {
            stamp_counter += 1;
            dirty.clear();

            // Phase 1: apply every event at `now`.
            while queue.peek_time() == Some(now) {
                let e = queue.pop().expect("peeked");
                stats.events_processed += 1;
                if ph.enabled() {
                    ph.emit(
                        now.ticks(),
                        now.ticks(),
                        0,
                        e.net.index() as u32,
                        TraceKind::Dequeue,
                        queue.len() as u64,
                    );
                }
                if values[e.net.index()] == e.value {
                    continue; // no change: suppressed
                }
                values[e.net.index()] = e.value;
                if let Some(w) = waveforms.get_mut(e.net) {
                    w.record(now, e.value);
                }
                for entry in circuit.fanout(e.net) {
                    if stamp[entry.gate.index()] != stamp_counter {
                        stamp[entry.gate.index()] = stamp_counter;
                        dirty.push(entry.gate);
                    }
                }
            }
            if initial {
                // Initial evaluation: every non-source gate computes its
                // output from the initialized nets.
                for (id, g) in circuit.iter() {
                    if !g.kind().is_source() && stamp[id.index()] != stamp_counter {
                        stamp[id.index()] = stamp_counter;
                        dirty.push(id);
                    }
                }
            }

            // Phase 2: evaluate each affected gate once, in id order.
            dirty.sort_unstable();
            for &id in &dirty {
                eval_counts[id.index()] += 1;
                stats.gate_evaluations += 1;
                if ph.enabled() {
                    ph.emit(now.ticks(), now.ticks(), 0, id.index() as u32, TraceKind::GateEval, 1);
                }
                let out = evaluate_gate(
                    circuit,
                    id,
                    &mut |f| values[f.index()],
                    &mut runtime[id.index()],
                );
                if let Some(v) = out {
                    let due = now + circuit.delay(id);
                    queue.push(Event::new(due, id, v));
                    stats.events_scheduled += 1;
                    if ph.enabled() {
                        ph.emit(
                            now.ticks(),
                            due.ticks(),
                            0,
                            id.index() as u32,
                            TraceKind::Enqueue,
                            queue.len() as u64,
                        );
                    }
                }
            }
        };

        // The t = 0 step always runs (initial evaluation), then the main
        // loop drains the queue in timestamp order.
        step(
            VirtualTime::ZERO,
            true,
            &mut queue,
            &mut values,
            &mut runtime,
            &mut stats,
            &mut waveforms,
        );
        loop {
            let now = match queue.peek_time() {
                Some(t) if t <= until => t,
                _ => break,
            };
            step(now, false, &mut queue, &mut values, &mut runtime, &mut stats, &mut waveforms);
        }

        let outcome = SimOutcome {
            final_values: values,
            waveforms: waveforms.into_map(),
            end_time: until,
            stats,
        };
        (outcome, eval_counts)
    }
}

impl<V: LogicValue> Default for SequentialSimulator<V> {
    fn default() -> Self {
        Self::new()
    }
}

impl<V: LogicValue> Simulator<V> for SequentialSimulator<V> {
    fn name(&self) -> String {
        match self.queue {
            QueueKind::BinaryHeap => "sequential".to_owned(),
            QueueKind::Calendar => "sequential(calendar)".to_owned(),
            QueueKind::PairingHeap => "sequential(pairing)".to_owned(),
        }
    }

    fn run(&self, circuit: &Circuit, stimulus: &Stimulus, until: VirtualTime) -> SimOutcome<V> {
        self.run_with_activity(circuit, stimulus, until).0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use parsim_logic::{Bit, Logic4};
    use parsim_netlist::{bench, generate, CircuitBuilder, Delay, DelayModel};

    fn run_bits(circuit: &Circuit, stim: &Stimulus, until: u64) -> SimOutcome<Bit> {
        SequentialSimulator::<Bit>::new().with_observe(Observe::AllNets).run(
            circuit,
            stim,
            VirtualTime::new(until),
        )
    }

    #[test]
    fn c17_matches_functional_model() {
        let c = bench::c17();
        let stim = Stimulus::counting(100);
        // 100-tick interval: plenty of settle time for a depth-3 circuit.
        let out = run_bits(&c, &stim, 3200);
        // After the final vector (step 31: all inputs 1) the outputs must be
        // the NAND-network's functional value: compute by hand.
        // With all inputs 1: 10 = NAND(1,3)=0, 11 = NAND(3,6)=0,
        // 16 = NAND(2,11)=1, 19 = NAND(11,7)=1, 22 = NAND(10,16)=1,
        // 23 = NAND(16,19)=0.
        assert_eq!(out.value_by_name(&c, "22"), Some(Bit::One));
        assert_eq!(out.value_by_name(&c, "23"), Some(Bit::Zero));
    }

    #[test]
    fn xor_chain_propagates_with_delay() {
        // in -> NOT -> NOT -> NOT (delay 2 each): output is ~in after 6 ticks.
        let mut b = CircuitBuilder::new("chain");
        let mut cur = b.input("in");
        for i in 0..3 {
            cur = b.named_gate(format!("n{i}"), GateKind::Not, [cur], Delay::new(2));
        }
        b.output("y", cur);
        let c = b.finish().unwrap();
        let stim = Stimulus::vectors(100, vec![vec![true]]);
        let out = run_bits(&c, &stim, 100);
        let y = c.find("n2").unwrap();
        let w = &out.waveforms[&y];
        // Initial evaluation drives y to 1 at t=6 (all-zero inputs, odd
        // inversions); input 1 at t=0 flips it back at... both waves race
        // through; final: ~1 = 0 ... check final value and transition times.
        assert_eq!(out.value(y), Bit::Zero);
        assert!(w.transitions().iter().all(|&(t, _)| t.ticks() % 2 == 0));
    }

    #[test]
    fn lfsr_advances_every_rising_edge() {
        let c = generate::lfsr(8, DelayModel::Unit);
        let stim = Stimulus::quiet(1000).with_clock(5);
        let out = run_bits(&c, &stim, 500);
        // XNOR feedback from the all-zero state must have produced activity.
        let q0 = c.find("q0").unwrap();
        assert!(out.waveforms[&q0].toggle_count() > 0, "LFSR never advanced");
    }

    #[test]
    fn counter_counts() {
        let c = generate::counter(5, DelayModel::Unit);
        let stim = Stimulus::quiet(10_000).with_clock(10);
        // 25 rising edges by t = 500 (at 10, 30, ..., 490).
        let out = run_bits(&c, &stim, 505);
        let value: u32 = (0..5)
            .map(|i| {
                let q = c.find(&format!("q{i}")).unwrap();
                (out.value(q) == Bit::One) as u32
            })
            .enumerate()
            .map(|(i, b)| b << i)
            .sum();
        assert_eq!(value, 25);
    }

    #[test]
    fn queue_variants_are_identical() {
        let c = generate::random_dag(&Default::default());
        let stim = Stimulus::random(9, 13);
        let heap = SequentialSimulator::<Logic4>::new().with_observe(Observe::AllNets).run(
            &c,
            &stim,
            VirtualTime::new(400),
        );
        for kind in [QueueKind::Calendar, QueueKind::PairingHeap] {
            let other = SequentialSimulator::<Logic4>::new()
                .with_observe(Observe::AllNets)
                .with_queue(kind)
                .run(&c, &stim, VirtualTime::new(400));
            assert_eq!(heap.divergence_from(&other), None, "{kind:?} diverged");
        }
    }

    #[test]
    fn quiet_circuit_settles() {
        let c = bench::c17();
        let stim = Stimulus::random_with_toggle(1, 10, 0.0);
        let out = run_bits(&c, &stim, 10_000);
        // Only initialization activity; far fewer evaluations than ticks.
        assert!(out.stats.gate_evaluations < 50);
    }

    #[test]
    fn constants_drive_their_values() {
        let mut b = CircuitBuilder::new("t");
        let one = b.constant(true);
        let zero = b.constant(false);
        let g = b.gate(GateKind::And, [one, zero], Delay::UNIT);
        let h = b.gate(GateKind::Or, [one, zero], Delay::UNIT);
        b.output("g", g);
        b.output("h", h);
        let c = b.finish().unwrap();
        let stim = Stimulus::quiet(10);
        let out = run_bits(&c, &stim, 100);
        assert_eq!(out.value(g), Bit::Zero);
        assert_eq!(out.value(h), Bit::One);
    }

    #[test]
    fn until_bounds_processing() {
        let c = generate::counter(4, DelayModel::Unit);
        let stim = Stimulus::quiet(1000).with_clock(10);
        let early = run_bits(&c, &stim, 15);
        let late = run_bits(&c, &stim, 300);
        assert!(early.stats.events_processed < late.stats.events_processed);
        assert_eq!(early.end_time, VirtualTime::new(15));
    }

    #[test]
    fn std9_simulation_runs() {
        use parsim_logic::Std9;
        let c = bench::c17();
        let stim = Stimulus::random(4, 10);
        let out = SequentialSimulator::<Std9>::new().run(&c, &stim, VirtualTime::new(200));
        // Boolean stimulus through NANDs yields Boolean outputs.
        for po in c.outputs() {
            assert!(!out.value(*po).is_unknown());
        }
    }
}
