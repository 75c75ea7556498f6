//! Cycle-based (zero-delay, clock-accurate) simulation.

use std::collections::BTreeMap;
use std::marker::PhantomData;

use parsim_event::{Event, VirtualTime};
use parsim_logic::{eval_combinational, eval_dff, eval_latch, GateKind, LogicValue};
use parsim_netlist::{Circuit, GateId, Levelization};

use crate::{Observe, SimOutcome, SimStats, Simulator, Stimulus, WaveRecorder, Waveform};

/// A cycle-based simulator: gate delays are ignored and the combinational
/// network is evaluated to its fixpoint in levelized (rank) order at every
/// stimulus change; flip-flops update once per capturing edge.
///
/// This is the "compiled, cycle-based" style production verification flows
/// use when per-gate timing is irrelevant: one rank-ordered sweep per event
/// time instead of an event queue, trading timing fidelity for raw
/// throughput. It relates to the timed kernels by a precise contract: for a
/// circuit whose combinational depth fits within every stimulus interval
/// and clock phase, the *settled* value of every net at each stimulus time
/// (just before the next input change) equals the timed kernels' settled
/// value — which is what the differential tests check.
///
/// Waveforms record one transition per stimulus time (the settled value):
/// intermediate glitches, which the timed kernels expose, are definitionally
/// absent.
///
/// # Examples
///
/// ```
/// use parsim_core::{CycleSimulator, SequentialSimulator, Simulator, Stimulus};
/// use parsim_event::VirtualTime;
/// use parsim_logic::Bit;
/// use parsim_netlist::{generate, DelayModel};
///
/// // Counter, clock half-period 10 ≫ depth: cycle-based and event-driven
/// // agree on every settled state.
/// let c = generate::counter(4, DelayModel::Unit);
/// let stim = Stimulus::quiet(1000).with_clock(10);
/// let cycle = CycleSimulator::<Bit>::new().run(&c, &stim, VirtualTime::new(400));
/// let timed = SequentialSimulator::<Bit>::new().run(&c, &stim, VirtualTime::new(400));
/// assert_eq!(cycle.final_values, timed.final_values);
/// assert!(cycle.stats.gate_evaluations < timed.stats.events_scheduled * 100);
/// ```
#[derive(Debug, Clone)]
pub struct CycleSimulator<V> {
    observe: Observe,
    _values: PhantomData<V>,
}

impl<V: LogicValue> CycleSimulator<V> {
    /// Creates the kernel.
    pub fn new() -> Self {
        CycleSimulator { observe: Observe::Outputs, _values: PhantomData }
    }

    /// Selects which nets to record waveforms for.
    pub fn with_observe(mut self, observe: Observe) -> Self {
        self.observe = observe;
        self
    }
}

impl<V: LogicValue> Default for CycleSimulator<V> {
    fn default() -> Self {
        Self::new()
    }
}

impl<V: LogicValue> Simulator<V> for CycleSimulator<V> {
    fn name(&self) -> String {
        "cycle-based".to_owned()
    }

    fn run(&self, circuit: &Circuit, stimulus: &Stimulus, until: VirtualTime) -> SimOutcome<V> {
        let n = circuit.len();
        let lv = Levelization::of(circuit);
        let mut values = vec![V::ZERO; n];
        let mut stats = SimStats::default();
        let mut waveforms = WaveRecorder::observing(circuit, self.observe, Waveform::new(V::ZERO));

        // Sequential elements: previous clock level for edge detection.
        let seq: Vec<GateId> = circuit.sequential_elements();
        let mut prev_clk: BTreeMap<GateId, V> = seq.iter().map(|&s| (s, V::ZERO)).collect();

        let mut input_events: Vec<Event<V>> = stimulus.events::<V>(circuit, until);
        for (id, g) in circuit.iter() {
            if g.kind() == GateKind::Const1 {
                input_events.push(Event::new(VirtualTime::ZERO, id, V::ONE));
            }
        }
        input_events.sort_by_key(|e| (e.time, e.net.index()));

        // Rank-ordered combinational settle + one synchronized sequential
        // update per stimulus time.
        let settle = |values: &mut Vec<V>,
                      prev_clk: &mut BTreeMap<GateId, V>,
                      stats: &mut SimStats| {
            // Sequential capture first: all flip-flops sample their inputs
            // (as settled at the previous time) simultaneously.
            let updates: Vec<(GateId, V)> = seq
                .iter()
                .map(|&s| {
                    let fanin = circuit.fanin(s);
                    let clk = values[fanin[0].index()];
                    let d = values[fanin[1].index()];
                    let q = values[s.index()];
                    let up = match circuit.kind(s) {
                        GateKind::Dff => eval_dff(prev_clk[&s], clk, d, q),
                        GateKind::Latch => eval_latch(clk, d, q),
                        _ => unreachable!("sequential_elements returns only DFFs and latches"),
                    };
                    (s, up.q)
                })
                .collect();
            for (&s, (_, q)) in seq.iter().zip(&updates) {
                let fanin_clk = circuit.fanin(s)[0];
                let clk_now = values[fanin_clk.index()];
                prev_clk.insert(s, clk_now);
                values[s.index()] = *q;
                stats.gate_evaluations += 1;
            }
            // Combinational fixpoint in one rank-ordered sweep.
            for &id in lv.order() {
                let kind = circuit.kind(id);
                if kind.is_source() || kind.is_sequential() {
                    continue;
                }
                let inputs: Vec<V> = circuit.fanin(id).iter().map(|&f| values[f.index()]).collect();
                values[id.index()] = eval_combinational(kind, &inputs);
                stats.gate_evaluations += 1;
            }
        };

        // The t = 0 settle always runs (like every kernel's initial
        // evaluation), even when no stimulus event lands at 0 — otherwise
        // the first clock edge would capture unsettled feedback logic.
        let mut i = 0usize;
        let mut old = values.clone();
        if input_events.first().is_none_or(|e| e.time > VirtualTime::ZERO) {
            settle(&mut values, &mut prev_clk, &mut stats);
            for (id, w) in waveforms.iter_mut() {
                if values[id.index()] != old[id.index()] {
                    w.record(VirtualTime::ZERO, values[id.index()]);
                }
            }
            old.clone_from(&values);
        }
        while i < input_events.len() {
            let now = input_events[i].time;
            while i < input_events.len() && input_events[i].time == now {
                let e = input_events[i];
                values[e.net.index()] = e.value;
                stats.events_processed += 1;
                i += 1;
            }
            settle(&mut values, &mut prev_clk, &mut stats);
            for (id, w) in waveforms.iter_mut() {
                if values[id.index()] != old[id.index()] {
                    w.record(now, values[id.index()]);
                }
            }
            old.clone_from(&values);
        }

        SimOutcome { final_values: values, waveforms: waveforms.into_map(), end_time: until, stats }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SequentialSimulator;
    use parsim_logic::Bit;
    use parsim_netlist::{bench, generate, DelayModel};

    /// Settled-state agreement with the timed reference: final values match
    /// whenever every clock phase and stimulus interval exceeds the depth.
    fn check_settled<V: LogicValue>(c: &Circuit, stim: &Stimulus, until: u64) {
        let cycle = CycleSimulator::<V>::new().run(c, stim, VirtualTime::new(until));
        let timed = SequentialSimulator::<V>::new().run(c, stim, VirtualTime::new(until));
        assert_eq!(
            cycle.final_values,
            timed.final_values,
            "settled states diverged on {}",
            c.name()
        );
    }

    #[test]
    fn combinational_settles_like_event_driven() {
        check_settled::<Bit>(&bench::c17(), &Stimulus::counting(20), 650);
        let c = generate::ripple_adder(8, DelayModel::Unit);
        check_settled::<Bit>(&c, &Stimulus::random(3, 40), 800);
    }

    #[test]
    fn sequential_circuits_agree_at_clock_boundaries() {
        let c = generate::counter(6, DelayModel::Unit);
        check_settled::<Bit>(&c, &Stimulus::quiet(100_000).with_clock(12), 1000);
        let c = generate::lfsr(8, DelayModel::Unit);
        check_settled::<Bit>(&c, &Stimulus::quiet(100_000).with_clock(12), 800);
    }

    #[test]
    fn far_fewer_evaluations_than_oblivious() {
        let c = generate::counter(6, DelayModel::Unit);
        let stim = Stimulus::quiet(100_000).with_clock(12);
        let cycle = CycleSimulator::<Bit>::new().run(&c, &stim, VirtualTime::new(1200));
        let obl = crate::ObliviousSimulator::<Bit>::new().run(&c, &stim, VirtualTime::new(1200));
        assert!(
            cycle.stats.gate_evaluations * 5 < obl.stats.gate_evaluations,
            "cycle-based evaluates per stimulus change, not per tick: {} vs {}",
            cycle.stats.gate_evaluations,
            obl.stats.gate_evaluations
        );
    }

    #[test]
    fn waveforms_record_settled_values_only() {
        // s0 of an adder may glitch in the timed kernel; cycle-based
        // records only one transition per stimulus time.
        let c = generate::ripple_adder(6, DelayModel::Unit);
        let stim = Stimulus::random(9, 50);
        let out = CycleSimulator::<Bit>::new().with_observe(Observe::AllNets).run(
            &c,
            &stim,
            VirtualTime::new(500),
        );
        for w in out.waveforms.values() {
            let mut times: Vec<_> = w.transitions().iter().map(|&(t, _)| t.ticks()).collect();
            times.dedup();
            assert_eq!(times.len(), w.transitions().len(), "at most one transition per time");
            // All transitions at stimulus boundaries (multiples of 50).
            assert!(times.iter().all(|&t| t % 50 == 0));
        }
    }
}
