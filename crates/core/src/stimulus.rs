//! Deterministic test-vector sources.

use parsim_event::{Event, VirtualTime};
use parsim_logic::{GateKind, LogicValue};
use parsim_netlist::{Circuit, GateId};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The pattern applied to non-clock primary inputs.
#[derive(Debug, Clone, PartialEq)]
enum Pattern {
    /// Every `interval` ticks, each input toggles with probability
    /// `toggle_prob` (the "random vectors" the paper notes ISCAS circuits
    /// are typically simulated with).
    Random { seed: u64, toggle_prob: f64 },
    /// Inputs count in binary: input `i` carries bit `i` of the step number.
    Counting,
    /// Explicit vectors, one per step, cycled if the run is longer.
    Explicit(Vec<Vec<bool>>),
    /// Named value changes replayed verbatim (e.g. parsed from a VCD dump);
    /// `(time, input name, value)`.
    Replay(Vec<(u64, String, bool)>),
    /// All inputs held at constant 0 (clock still runs if configured).
    Quiet,
}

/// A deterministic stimulus: input vectors applied on a fixed cadence, with
/// optional square-wave clocks.
///
/// Inputs named `clk` or `__clk` (the ISCAS-89 implicit clock) are treated
/// as clocks when a clock period is configured: they get a square wave
/// instead of pattern data, which is what sequential circuits need to
/// advance at all.
///
/// The stimulus is a pure function of its configuration and the circuit, so
/// every kernel sees the identical event list — the foundation of the
/// differential tests.
///
/// # Examples
///
/// ```
/// use parsim_core::Stimulus;
/// use parsim_event::VirtualTime;
/// use parsim_logic::Bit;
/// use parsim_netlist::bench;
///
/// let c = bench::c17();
/// let stim = Stimulus::random(7, 10);
/// let events = stim.events::<Bit>(&c, VirtualTime::new(100));
/// assert!(!events.is_empty());
/// // Deterministic:
/// assert_eq!(events, stim.events::<Bit>(&c, VirtualTime::new(100)));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Stimulus {
    pattern: Pattern,
    interval: u64,
    clock_half_period: Option<u64>,
}

/// Input names treated as clocks.
const CLOCK_NAMES: &[&str] = &["clk", "__clk"];

impl Stimulus {
    /// Random vectors: every `interval` ticks each input toggles with
    /// probability ½.
    ///
    /// # Panics
    ///
    /// Panics if `interval` is zero.
    pub fn random(seed: u64, interval: u64) -> Self {
        Self::random_with_toggle(seed, interval, 0.5)
    }

    /// Random vectors with an explicit per-input toggle probability — the
    /// activity-level knob of experiment E6.
    ///
    /// # Panics
    ///
    /// Panics if `interval` is zero or `toggle_prob` is outside `[0, 1]`.
    pub fn random_with_toggle(seed: u64, interval: u64, toggle_prob: f64) -> Self {
        assert!(interval > 0, "stimulus interval must be positive");
        assert!((0.0..=1.0).contains(&toggle_prob), "toggle probability must be in [0,1]");
        Stimulus {
            pattern: Pattern::Random { seed, toggle_prob },
            interval,
            clock_half_period: None,
        }
    }

    /// Counting vectors: input `i` carries bit `i` of the step counter.
    ///
    /// # Panics
    ///
    /// Panics if `interval` is zero.
    pub fn counting(interval: u64) -> Self {
        assert!(interval > 0, "stimulus interval must be positive");
        Stimulus { pattern: Pattern::Counting, interval, clock_half_period: None }
    }

    /// Explicit vectors (one `bool` per non-clock input, one vector per
    /// step), cycled if the run outlasts them.
    ///
    /// # Panics
    ///
    /// Panics if `interval` is zero or `vectors` is empty.
    pub fn vectors(interval: u64, vectors: Vec<Vec<bool>>) -> Self {
        assert!(interval > 0, "stimulus interval must be positive");
        assert!(!vectors.is_empty(), "need at least one vector");
        Stimulus { pattern: Pattern::Explicit(vectors), interval, clock_half_period: None }
    }

    /// Replays named value changes verbatim — the testbench-replay
    /// workflow: dump one run's input activity (e.g. with
    /// [`write_vcd`](crate::write_vcd) observing all nets), parse it back
    /// ([`parse_vcd_changes`](crate::parse_vcd_changes)) and re-drive any
    /// kernel with it. Clock detection does not apply: the replay is the
    /// complete stimulus.
    ///
    /// Changes whose names do not match a primary input of the target
    /// circuit are ignored (a VCD dump usually contains internal nets too).
    ///
    /// Public API: the replay half of the VCD workflow
    /// ([`parse_vcd_changes`](crate::parse_vcd_changes)'s example); only
    /// doc examples and tests call it in the workspace.
    pub fn replay(changes: Vec<(u64, String, bool)>) -> Self {
        Stimulus { pattern: Pattern::Replay(changes), interval: 1, clock_half_period: None }
    }

    /// Holds all non-clock inputs at 0; useful with
    /// [`with_clock`](Self::with_clock) for free-running sequential
    /// circuits such as LFSRs and counters.
    ///
    /// # Panics
    ///
    /// Panics if `interval` is zero.
    pub fn quiet(interval: u64) -> Self {
        assert!(interval > 0, "stimulus interval must be positive");
        Stimulus { pattern: Pattern::Quiet, interval, clock_half_period: None }
    }

    /// Adds a square-wave clock of the given half-period on every input
    /// named `clk` or `__clk`.
    ///
    /// # Panics
    ///
    /// Panics if `half_period` is zero.
    pub fn with_clock(mut self, half_period: u64) -> Self {
        assert!(half_period > 0, "clock half-period must be positive");
        self.clock_half_period = Some(half_period);
        self
    }

    /// The vector cadence in ticks.
    pub fn interval(&self) -> u64 {
        self.interval
    }

    /// Generates all input events with `time < until`, sorted by time.
    ///
    /// At `t = 0` every input is driven explicitly (clocks start low, i.e.
    /// no event, since nets initialize to zero); later steps only emit
    /// changes.
    pub fn events<V: LogicValue>(&self, circuit: &Circuit, until: VirtualTime) -> Vec<Event<V>> {
        if let Pattern::Replay(changes) = &self.pattern {
            let inputs: std::collections::HashMap<&str, GateId> = circuit
                .inputs()
                .iter()
                .filter_map(|&pi| circuit.gate(pi).name().map(|n| (n, pi)))
                .collect();
            let mut events: Vec<Event<V>> = changes
                .iter()
                .filter(|(t, _, _)| *t < until.ticks())
                .filter_map(|(t, name, v)| {
                    inputs
                        .get(name.as_str())
                        .map(|&id| Event::new(VirtualTime::new(*t), id, V::from_bool(*v)))
                })
                .collect();
            events.sort_by_key(|e| (e.time, e.net.index()));
            return events;
        }
        let clocks: Vec<GateId> = if self.clock_half_period.is_some() {
            circuit
                .inputs()
                .iter()
                .copied()
                .filter(|&pi| circuit.gate(pi).name().is_some_and(|n| CLOCK_NAMES.contains(&n)))
                .collect()
        } else {
            Vec::new()
        };
        let data_inputs: Vec<GateId> =
            circuit.inputs().iter().copied().filter(|pi| !clocks.contains(pi)).collect();

        let mut events: Vec<Event<V>> = Vec::new();

        // Clock edges.
        if let Some(half) = self.clock_half_period {
            let mut level = false;
            let mut t = half;
            while t < until.ticks() {
                level = !level;
                for &clk in &clocks {
                    events.push(Event::new(VirtualTime::new(t), clk, V::from_bool(level)));
                }
                let Some(next) = t.checked_add(half) else { break };
                t = next;
            }
        }

        // Data vectors.
        let mut prev: Vec<bool> = vec![false; data_inputs.len()];
        let mut step = 0u64;
        let mut t = 0u64;
        while t < until.ticks() {
            let vector = self.vector_at(step, &prev, data_inputs.len());
            for (i, (&input, &bit)) in data_inputs.iter().zip(&vector).enumerate() {
                if step == 0 || bit != prev[i] {
                    events.push(Event::new(VirtualTime::new(t), input, V::from_bool(bit)));
                }
            }
            prev = vector;
            step += 1;
            // A horizon within one interval of `u64::MAX` ends here rather
            // than wrapping back to t = 0.
            let Some(next) = t.checked_add(self.interval) else { break };
            t = next;
        }

        events.sort_by_key(|e| (e.time, e.net.index()));
        events
    }

    /// Every event known before a run starts: [`events`](Self::events),
    /// sorted by (time, net), then a `t = 0` event driving each constant-1
    /// net high, in gate-id order. The sequential kernel and the fabric's
    /// preloads both start from this list.
    pub fn known_events<V: LogicValue>(
        &self,
        circuit: &Circuit,
        until: VirtualTime,
    ) -> Vec<Event<V>> {
        let mut events = self.events(circuit, until);
        let constants = circuit.ids().filter(|&id| circuit.kind(id) == GateKind::Const1);
        events.extend(constants.map(|id| Event::new(VirtualTime::ZERO, id, V::ONE)));
        events
    }

    fn vector_at(&self, step: u64, prev: &[bool], n: usize) -> Vec<bool> {
        match &self.pattern {
            Pattern::Random { seed, toggle_prob } => {
                // Derive per-step randomness from the seed so the stimulus
                // is random-access (no dependence on generation order).
                let mut rng =
                    StdRng::seed_from_u64(seed ^ step.wrapping_mul(0x9E37_79B9_7F4A_7C15));
                (0..n)
                    .map(|i| {
                        let flip = rng.random_bool(*toggle_prob);
                        if step == 0 {
                            flip
                        } else {
                            prev[i] ^ flip
                        }
                    })
                    .collect()
            }
            Pattern::Counting => (0..n).map(|i| step >> (i.min(63)) & 1 == 1).collect(),
            Pattern::Explicit(vectors) => {
                let v = &vectors[(step % vectors.len() as u64) as usize];
                (0..n).map(|i| v.get(i).copied().unwrap_or(false)).collect()
            }
            Pattern::Quiet => vec![false; n],
            Pattern::Replay(_) => unreachable!("replay stimulus bypasses vector generation"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use parsim_logic::Bit;
    use parsim_netlist::{bench, generate, DelayModel};

    #[test]
    fn counting_matches_binary() {
        let c = bench::c17(); // 5 inputs
        let stim = Stimulus::counting(10);
        let events = stim.events::<Bit>(&c, VirtualTime::new(40));
        // Step 0 (t=0): all five inputs driven 0.
        let at0: Vec<_> = events.iter().filter(|e| e.time == VirtualTime::ZERO).collect();
        assert_eq!(at0.len(), 5);
        assert!(at0.iter().all(|e| e.value == Bit::Zero));
        // Step 1 (t=10): only bit 0 changes, to 1.
        let at10: Vec<_> = events.iter().filter(|e| e.time == VirtualTime::new(10)).collect();
        assert_eq!(at10.len(), 1);
        assert_eq!(at10[0].value, Bit::One);
        // Step 2 (t=20): bit0 1→0 and bit1 0→1.
        let at20: Vec<_> = events.iter().filter(|e| e.time == VirtualTime::new(20)).collect();
        assert_eq!(at20.len(), 2);
    }

    #[test]
    fn clock_square_wave() {
        let c = generate::lfsr(4, DelayModel::Unit);
        let stim = Stimulus::quiet(100).with_clock(5);
        let events = stim.events::<Bit>(&c, VirtualTime::new(21));
        let clk = c.find("clk").unwrap();
        let clk_events: Vec<_> = events.iter().filter(|e| e.net == clk).collect();
        // Edges at 5, 10, 15, 20: 1, 0, 1, 0.
        assert_eq!(clk_events.len(), 4);
        assert_eq!(clk_events[0].value, Bit::One);
        assert_eq!(clk_events[1].value, Bit::Zero);
    }

    #[test]
    fn zero_toggle_probability_is_quiet_after_t0() {
        let c = bench::c17();
        let stim = Stimulus::random_with_toggle(3, 10, 0.0);
        let events = stim.events::<Bit>(&c, VirtualTime::new(1000));
        assert!(events.iter().all(|e| e.time == VirtualTime::ZERO));
    }

    #[test]
    fn higher_toggle_probability_gives_more_events() {
        let c = bench::c17();
        let low = Stimulus::random_with_toggle(3, 10, 0.1)
            .events::<Bit>(&c, VirtualTime::new(5000))
            .len();
        let high = Stimulus::random_with_toggle(3, 10, 0.9)
            .events::<Bit>(&c, VirtualTime::new(5000))
            .len();
        assert!(high > 2 * low, "toggle knob inert: {low} vs {high}");
    }

    #[test]
    fn explicit_vectors_cycle() {
        let c = bench::c17();
        let stim = Stimulus::vectors(10, vec![vec![true; 5], vec![false; 5]]);
        let events = stim.events::<Bit>(&c, VirtualTime::new(40));
        // t=0 all ones, t=10 all zeros, t=20 all ones, t=30 all zeros.
        assert_eq!(events.iter().filter(|e| e.value == Bit::One).count(), 10);
        assert_eq!(events.len(), 20);
    }

    #[test]
    fn a_horizon_near_u64_max_ends_instead_of_wrapping() {
        let c = bench::c17();
        let until = VirtualTime::new(u64::MAX - 1);
        let events = Stimulus::counting(1 << 63).events::<Bit>(&c, until);
        // Vectors at t = 0 and t = 2^63; the next step would wrap to 0.
        let times: Vec<u64> = events.iter().map(|e| e.time.ticks()).collect();
        assert_eq!(times, [vec![0; 5], vec![1 << 63]].concat());
        let clock = generate::lfsr(4, DelayModel::Unit);
        let edges = Stimulus::quiet(u64::MAX).with_clock(1 << 62).events::<Bit>(&clock, until);
        let clk = clock.find("clk").unwrap();
        let edge_times: Vec<u64> =
            edges.iter().filter(|e| e.net == clk).map(|e| e.time.ticks()).collect();
        assert_eq!(edge_times, [1 << 62, 2 << 62, 3 << 62]);
    }

    #[test]
    fn events_are_sorted_and_unique_per_net_time() {
        let c = generate::lfsr(8, DelayModel::Unit);
        let stim = Stimulus::random(1, 7).with_clock(3);
        let events = stim.events::<Bit>(&c, VirtualTime::new(500));
        let mut seen = std::collections::HashSet::new();
        let mut last = VirtualTime::ZERO;
        for e in &events {
            assert!(e.time >= last);
            last = e.time;
            assert!(seen.insert((e.time, e.net)), "duplicate event for {} at {}", e.net, e.time);
        }
    }
}
