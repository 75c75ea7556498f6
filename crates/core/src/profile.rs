//! Pre-simulation activity profiling.

use parsim_event::VirtualTime;
use parsim_logic::LogicValue;
use parsim_netlist::{Circuit, GateId};

use crate::{Observe, SequentialSimulator, Stimulus};

/// Per-gate evaluation frequencies measured by a profiling run.
///
/// This is §III *pre-simulation*: "the simulation is run for a period of
/// time and the evaluation frequency of each gate is measured. This measured
/// evaluation frequency is then assumed to persist for the remainder of the
/// simulation execution." The counts feed
/// [`GateWeights::from_counts`](https://docs.rs/parsim-partition) to produce
/// activity-weighted partitions (experiment E8).
///
/// # Examples
///
/// ```
/// use parsim_core::{pre_simulate, Stimulus};
/// use parsim_event::VirtualTime;
/// use parsim_netlist::bench;
///
/// let c = bench::c17();
/// let profile = pre_simulate(&c, &Stimulus::random(5, 10), VirtualTime::new(500));
/// assert_eq!(profile.counts().len(), c.len());
/// assert!(profile.total() > 0);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ActivityProfile {
    counts: Vec<u64>,
    window: VirtualTime,
}

impl ActivityProfile {
    /// The per-gate evaluation counts, indexed by gate id.
    pub fn counts(&self) -> &[u64] {
        &self.counts
    }

    /// The evaluation count of one gate.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn count(&self, id: GateId) -> u64 {
        self.counts[id.index()]
    }

    /// Total evaluations across all gates.
    pub fn total(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// The simulated-time window the profile covers.
    pub fn window(&self) -> VirtualTime {
        self.window
    }

    /// Mean evaluations per gate per tick — the circuit's *activity level*
    /// (the knob experiment E6 studies).
    pub fn activity_level(&self, circuit: &Circuit) -> f64 {
        let evaluating = circuit.iter().filter(|(_, g)| !g.kind().is_source()).count() as f64;
        let ticks = self.window.ticks().max(1) as f64;
        self.total() as f64 / (evaluating * ticks).max(1.0)
    }
}

/// Runs the sequential reference kernel for `window` ticks and returns the
/// measured per-gate evaluation frequencies.
///
/// Uses two-valued logic: the activity *pattern* is what matters, and the
/// profile must be cheap relative to the main run.
pub fn pre_simulate(
    circuit: &Circuit,
    stimulus: &Stimulus,
    window: VirtualTime,
) -> ActivityProfile {
    let sim = SequentialSimulator::<parsim_logic::Bit>::new().with_observe(Observe::Nothing);
    let (_, counts) = sim.run_with_activity(circuit, stimulus, window);
    ActivityProfile { counts, window }
}

/// Convenience: profile with the same stimulus family the main run will use,
/// over a window of `fraction` of the main run length (clamped to at least
/// one stimulus interval).
pub fn pre_simulate_fraction<V: LogicValue>(
    circuit: &Circuit,
    stimulus: &Stimulus,
    until: VirtualTime,
    fraction: f64,
) -> ActivityProfile {
    let window = ((until.ticks() as f64 * fraction) as u64).max(stimulus.interval());
    pre_simulate(circuit, stimulus, VirtualTime::new(window))
}

#[cfg(test)]
mod tests {
    use super::*;
    use parsim_netlist::{generate, DelayModel};

    #[test]
    fn profile_reflects_activity_skew() {
        // A counter's low bits toggle far more often than its high bits, so
        // the low-bit XOR gates must evaluate more often.
        let c = generate::counter(8, DelayModel::Unit);
        let profile =
            pre_simulate(&c, &Stimulus::quiet(100_000).with_clock(4), VirtualTime::new(4000));
        // The DFFs themselves all evaluate on every clock edge; the skew
        // shows in their *data* logic (the toggle XOR gates), whose inputs
        // change once per 2 cycles at bit 0 but once per 128 at bit 7.
        let d0 = c.fanin(c.find("q0").unwrap())[1];
        let d7 = c.fanin(c.find("q7").unwrap())[1];
        assert!(
            profile.count(d0) > 4 * profile.count(d7).max(1),
            "bit-0 toggle logic ({}) should evaluate far more than bit-7 ({})",
            profile.count(d0),
            profile.count(d7)
        );
    }

    #[test]
    fn activity_level_scales_with_toggle_probability() {
        let c = generate::random_dag(&Default::default());
        let until = VirtualTime::new(2000);
        let lazy =
            pre_simulate(&c, &Stimulus::random_with_toggle(1, 10, 0.05), until).activity_level(&c);
        let busy =
            pre_simulate(&c, &Stimulus::random_with_toggle(1, 10, 0.95), until).activity_level(&c);
        assert!(busy > 3.0 * lazy, "activity knob inert: {lazy} vs {busy}");
    }

    #[test]
    fn fraction_window_clamps() {
        let c = parsim_netlist::bench::c17();
        let stim = Stimulus::random(1, 50);
        let p = pre_simulate_fraction::<parsim_logic::Bit>(&c, &stim, VirtualTime::new(10), 0.01);
        assert_eq!(p.window(), VirtualTime::new(50));
    }
}
