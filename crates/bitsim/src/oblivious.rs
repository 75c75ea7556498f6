//! The scalar oblivious kernel: [`BitSimulator`] at one lane.

use parsim_core::{Observe, SimOutcome, Simulator, Stimulus};
use parsim_event::VirtualTime;
use parsim_logic::{Bit, Logic4, LogicValue};
use parsim_netlist::Circuit;
use parsim_trace::Probe;

use crate::packed::{PackedBit, PackedLogic4, PackedValue};
use crate::sim::BitSimulator;
use crate::stimulus::PackedStimulus;

/// A scalar value system with a packed carrier: the value systems
/// [`ObliviousSimulator`] runs.
///
/// `Std9` has none, so there is no nine-valued oblivious kernel:
///
/// ```compile_fail
/// use parsim_bitsim::ObliviousSimulator;
/// use parsim_logic::Std9;
///
/// let _ = ObliviousSimulator::<Std9>::new();
/// ```
pub trait Packable: LogicValue {
    /// The packed word whose lanes carry this value system.
    type Packed: PackedValue<Scalar = Self>;
}

impl Packable for Bit {
    type Packed = PackedBit;
}

impl Packable for Logic4 {
    type Packed = PackedLogic4;
}

/// The §IV *oblivious* algorithm: no event queue at all.
///
/// "At every point in simulated time, every LP is evaluated, whether or not
/// its inputs have changed. This completely eliminates the need for an event
/// queue ... At low activity levels, redundant evaluations are an enormous
/// overhead. At higher activity levels, the elimination of the event queue
/// (and its associated overhead) can lead to a performance advantage."
///
/// This is the scalar face of [`BitSimulator`]: the stimulus becomes a
/// one-lane [`PackedStimulus`], the packed kernel runs it, and lane 0 is
/// the outcome. Tick `t` values are a pure function of tick `t − 1`
/// values, which is exactly unit-delay semantics — so for unit-delay
/// circuits this kernel is bit-identical to the event-driven reference
/// (and is differential-tested against it). Experiment E6 sweeps input
/// activity to find the crossover the paper describes.
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
/// use parsim_bitsim::ObliviousSimulator;
/// use parsim_core::{Observe, SequentialSimulator, Simulator, Stimulus};
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
pub struct ObliviousSimulator<V: Packable> {
    packed: BitSimulator<V::Packed>,
}

impl<V: Packable> ObliviousSimulator<V> {
    /// Creates the kernel (observing primary outputs).
    pub fn new() -> Self {
        ObliviousSimulator { packed: BitSimulator::new() }
    }

    /// Selects which nets to record waveforms for.
    pub fn with_observe(self, observe: Observe) -> Self {
        ObliviousSimulator { packed: self.packed.with_observe(observe) }
    }

    /// Does nothing: the kernel always runs the compiled schedule. Kept so
    /// that callers written against the interpreted kernel still build.
    pub fn with_compiled(self) -> Self {
        self
    }

    /// Attaches a trace probe, with [`BitSimulator::with_probe`]'s records:
    /// one batched `GateEval` per tick, a `Dequeue` per applied input event
    /// and a `Charge` span per schedule section per tick.
    pub fn with_probe(self, probe: Probe) -> Self {
        ObliviousSimulator { packed: self.packed.with_probe(probe) }
    }
}

impl<V: Packable> Default for ObliviousSimulator<V> {
    fn default() -> Self {
        Self::new()
    }
}

impl<V: Packable> Simulator<V> for ObliviousSimulator<V> {
    fn name(&self) -> String {
        "oblivious".to_owned()
    }

    fn run(&self, circuit: &Circuit, stimulus: &Stimulus, until: VirtualTime) -> SimOutcome<V> {
        let lane = PackedStimulus::new(vec![stimulus.clone()]);
        self.packed.run(circuit, &lane, until).lane_outcome(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use parsim_core::SequentialSimulator;
    use parsim_netlist::{bench, generate, DelayModel};

    fn equivalent<V: Packable>(circuit: &Circuit, stim: &Stimulus, until: u64) {
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
    fn compiled_evaluation_count_is_gates_times_ticks() {
        // `with_compiled` is a no-op: the count is the default kernel's.
        let c = bench::c17();
        let out = ObliviousSimulator::<Bit>::new().with_compiled().run(
            &c,
            &Stimulus::random_with_toggle(1, 10, 0.0),
            VirtualTime::new(100),
        );
        assert_eq!(out.stats.gate_evaluations, 6 * 100);
    }

    /// The counters the scalar kernel reported before it ran on the packed
    /// one: `(gate_evaluations, events_processed)` for each circuit, under
    /// both value systems.
    #[test]
    fn counters_match_the_scalar_kernel() {
        fn counters<V: Packable>(c: &Circuit, stim: &Stimulus, until: u64) -> (u64, u64) {
            let out = ObliviousSimulator::<V>::new().run(c, stim, VirtualTime::new(until));
            (out.stats.gate_evaluations, out.stats.events_processed)
        }
        let dag = generate::random_dag(&generate::RandomDagConfig {
            gates: 150,
            seq_fraction: 0.15,
            seed: 3,
            ..Default::default()
        });
        let cases = [
            (bench::c17(), Stimulus::random(11, 7), 150, (900, 61)),
            (
                generate::lfsr(6, DelayModel::Unit),
                Stimulus::quiet(100).with_clock(4),
                200,
                (1400, 49),
            ),
            (dag, Stimulus::random(3, 9).with_clock(5), 120, (18_000, 255)),
        ];
        for (c, stim, until, want) in &cases {
            assert_eq!(counters::<Bit>(c, stim, *until), *want, "{} (Bit)", c.name());
            assert_eq!(counters::<Logic4>(c, stim, *until), *want, "{} (Logic4)", c.name());
        }
    }

    #[test]
    #[should_panic(expected = "unit gate delays")]
    fn rejects_non_unit_delays() {
        let c = generate::ripple_adder(2, DelayModel::PerKind);
        ObliviousSimulator::<Bit>::new().run(&c, &Stimulus::random(1, 5), VirtualTime::new(50));
    }
}
