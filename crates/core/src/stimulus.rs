//! Deterministic test-vector sources.

use parsim_event::{Event, VirtualTime};
use parsim_logic::{GateKind, LogicValue};
use parsim_netlist::Circuit;
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

    /// Generates all input events with `time < until`, sorted by
    /// `(time, net)`: [`changes`](Self::changes), collected.
    ///
    /// At `t = 0` every input is driven explicitly (clocks start low, i.e.
    /// no event, since nets initialize to zero); later steps only emit
    /// changes.
    pub fn events<V: LogicValue>(&self, circuit: &Circuit, until: VirtualTime) -> Vec<Event<V>> {
        let inputs = circuit.inputs();
        let mut changes = self.changes(circuit, until);
        let mut events: Vec<Event<V>> = Vec::new();
        while let Some(time) = changes.next_time() {
            changes.advance(|input, value, changed| {
                if changed {
                    events.push(Event::new(time, inputs[input], V::from_bool(value)));
                }
            });
        }
        // Stable: a replay driving one input twice at one time keeps its
        // order, so the later value is applied last.
        events.sort_by_key(|e| (e.time, e.net.index()));
        events
    }

    /// The stimulus as a time-ordered source of input changes up to (not
    /// including) `until`, produced one timestamp at a time.
    pub fn changes(&self, circuit: &Circuit, until: VirtualTime) -> InputChanges<'_> {
        let inputs = circuit.inputs();
        let until = until.ticks();
        let name = |i: usize| circuit.gate(inputs[i]).name();
        let mut replay = Vec::new();
        let (mut clocks, mut data) = (Vec::new(), Vec::new());
        if let Pattern::Replay(changes) = &self.pattern {
            let by_name: std::collections::HashMap<&str, usize> =
                (0..inputs.len()).filter_map(|i| name(i).map(|n| (n, i))).collect();
            replay = changes
                .iter()
                .filter(|(t, _, _)| *t < until)
                .filter_map(|(t, n, v)| by_name.get(n.as_str()).map(|&i| (*t, i, *v)))
                .collect();
            replay.sort_by_key(|&(t, i, _)| (t, inputs[i].index()));
        } else {
            let clocked = self.clock_half_period.is_some();
            (clocks, data) = (0..inputs.len())
                .partition(|&i| clocked && name(i).is_some_and(|n| CLOCK_NAMES.contains(&n)));
        }
        let half_period = self.clock_half_period.unwrap_or(u64::MAX);
        let threshold = match self.pattern {
            // `random_bool(p)` is `(x >> 11) as f64 / 2^53 < p`: both sides
            // are exact, so it is the integer test `x >> 11 < ⌈p · 2^53⌉`.
            Pattern::Random { toggle_prob, .. } => {
                (toggle_prob * (1u64 << 53) as f64).ceil() as u64
            }
            _ => 0,
        };
        InputChanges {
            pattern: &self.pattern,
            until,
            replay,
            replay_at: 0,
            next_edge: Some(half_period).filter(|&t| !clocks.is_empty() && t < until),
            clocks,
            half_period,
            level: false,
            next_step: Some(0).filter(|&t| !data.is_empty() && t < until),
            prev: vec![false; data.len()],
            vector: vec![false; data.len()],
            data,
            interval: self.interval,
            step: 0,
            threshold,
        }
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
}

/// One [`Stimulus`] as a time-ordered source of input changes: its clock
/// edges and data vectors, or a replay's sorted list, one timestamp at a
/// time ([`next_time`](Self::next_time), then [`advance`](Self::advance)).
/// Inputs are named by their index in [`Circuit::inputs`].
///
/// [`Stimulus::events`] collects one source; the bit-parallel kernel walks
/// 64 of them side by side and packs each lane's changes straight into
/// lane words.
///
/// # Examples
///
/// ```
/// use parsim_core::Stimulus;
/// use parsim_event::VirtualTime;
/// use parsim_netlist::bench;
///
/// let c = bench::c17();
/// let stim = Stimulus::counting(10);
/// let mut changes = stim.changes(&c, VirtualTime::new(30));
/// let mut driven = Vec::new();
/// while let Some(t) = changes.next_time() {
///     changes.advance(|input, value, changed| {
///         if changed {
///             driven.push((t.ticks(), input, value));
///         }
///     });
/// }
/// // t = 0 drives all five inputs low; t = 10 raises input 0; t = 20
/// // lowers input 0 and raises input 1.
/// assert_eq!(driven.len(), 5 + 1 + 2);
/// assert_eq!(driven[5], (10, 0, true));
/// ```
#[derive(Debug)]
pub struct InputChanges<'s> {
    pattern: &'s Pattern,
    until: u64,
    /// `Pattern::Replay`: `(time, input, value)`, sorted stably by time
    /// and net; `replay_at` is the next entry.
    replay: Vec<(u64, usize, bool)>,
    replay_at: usize,
    /// The clock inputs, the time of their next edge and the level it
    /// drives them to.
    clocks: Vec<usize>,
    half_period: u64,
    next_edge: Option<u64>,
    level: bool,
    /// The data inputs, in input order; the time and number of the next
    /// vector; the last vector driven and the one being drawn.
    data: Vec<usize>,
    interval: u64,
    next_step: Option<u64>,
    step: u64,
    prev: Vec<bool>,
    vector: Vec<bool>,
    /// `Pattern::Random`: an input toggles when its draw's top 53 bits
    /// fall below this.
    threshold: u64,
}

impl InputChanges<'_> {
    /// When the next changes happen; `None` once the source is exhausted.
    pub fn next_time(&self) -> Option<VirtualTime> {
        let replay = self.replay.get(self.replay_at).map(|c| c.0);
        [replay, self.next_edge, self.next_step].into_iter().flatten().min().map(VirtualTime::new)
    }

    /// Reports the inputs driven at [`next_time`](Self::next_time) as
    /// `drive(input, value, changed)`, then moves past them. A data vector
    /// reports every data input: `changed` is `false` where the bit stayed
    /// what the last vector drove (after `t = 0`), so a caller packing many
    /// sources needs no branch per input. Clock edges and replayed changes
    /// always have `changed` set. One timestamp's reports are in no
    /// particular net order; a replay's repeated input keeps its order.
    pub fn advance(&mut self, mut drive: impl FnMut(usize, bool, bool)) {
        let Some(now) = self.next_time().map(VirtualTime::ticks) else { return };
        while let Some(&(_, input, value)) = self.replay.get(self.replay_at).filter(|c| c.0 == now)
        {
            drive(input, value, true);
            self.replay_at += 1;
        }
        if self.next_edge == Some(now) {
            self.level = !self.level;
            for &clk in &self.clocks {
                drive(clk, self.level, true);
            }
            self.next_edge = now.checked_add(self.half_period).filter(|&t| t < self.until);
        }
        if self.next_step == Some(now) {
            self.draw();
            let first = self.step == 0;
            for ((&input, &bit), prev) in self.data.iter().zip(&self.vector).zip(&mut self.prev) {
                drive(input, bit, first | (bit != *prev));
                *prev = bit;
            }
            self.step += 1;
            // A horizon within one interval of `u64::MAX` ends here rather
            // than wrapping back to t = 0.
            self.next_step = now.checked_add(self.interval).filter(|&t| t < self.until);
        }
    }

    /// Fills `vector` with data vector number `step`.
    fn draw(&mut self) {
        let step = self.step;
        match self.pattern {
            Pattern::Random { seed, .. } => {
                // Per-step randomness derived from the seed, so the
                // stimulus is random-access (no dependence on generation
                // order). The draw is `random_bool`'s, without its branches.
                let mut rng =
                    StdRng::seed_from_u64(seed ^ step.wrapping_mul(0x9E37_79B9_7F4A_7C15));
                for (bit, &prev) in self.vector.iter_mut().zip(&self.prev) {
                    *bit = prev ^ (rng.next_u64() >> 11 < self.threshold);
                }
            }
            Pattern::Counting => {
                for (i, bit) in self.vector.iter_mut().enumerate() {
                    *bit = step >> i.min(63) & 1 == 1;
                }
            }
            Pattern::Explicit(vectors) => {
                let v = &vectors[(step % vectors.len() as u64) as usize];
                for (i, bit) in self.vector.iter_mut().enumerate() {
                    *bit = v.get(i).copied().unwrap_or(false);
                }
            }
            Pattern::Quiet => {}
            Pattern::Replay(_) => unreachable!("a replay has no data vectors"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use parsim_logic::Bit;
    use parsim_netlist::{bench, generate, DelayModel, GateId};

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

    /// The generator `events` shipped with, kept as the reference: every
    /// clock edge, then every data vector, materialized and sorted by
    /// `(time, net)`.
    fn materialized<V: LogicValue>(
        stim: &Stimulus,
        circuit: &Circuit,
        until: VirtualTime,
    ) -> Vec<Event<V>> {
        if let Pattern::Replay(changes) = &stim.pattern {
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
        let clocks: Vec<GateId> = if stim.clock_half_period.is_some() {
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
        if let Some(half) = stim.clock_half_period {
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
        let n = data_inputs.len();
        let mut prev: Vec<bool> = vec![false; n];
        let mut step = 0u64;
        let mut t = 0u64;
        while t < until.ticks() {
            let vector: Vec<bool> = match &stim.pattern {
                Pattern::Random { seed, toggle_prob } => {
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
                Pattern::Replay(_) => unreachable!("handled above"),
            };
            for (i, (&input, &bit)) in data_inputs.iter().zip(&vector).enumerate() {
                if step == 0 || bit != prev[i] {
                    events.push(Event::new(VirtualTime::new(t), input, V::from_bool(bit)));
                }
            }
            prev = vector;
            step += 1;
            let Some(next) = t.checked_add(stim.interval) else { break };
            t = next;
        }
        events.sort_by_key(|e| (e.time, e.net.index()));
        events
    }

    /// A circuit whose inputs are declared out of gate-id order, with both
    /// clock names among them and 70 data inputs (past counting's 64 bits).
    fn shuffled_inputs() -> Circuit {
        let mut b = parsim_netlist::CircuitBuilder::new("shuffled_inputs");
        let mut names: Vec<String> = (0..70).map(|i| format!("d{i}")).collect();
        names.insert(3, "clk".to_owned());
        names.insert(40, "__clk".to_owned());
        let ids: Vec<GateId> = names.iter().map(|n| b.declare(n.as_str())).collect();
        for i in (1..ids.len()).step_by(2).rev().chain((0..ids.len()).step_by(2)) {
            b.define(ids[i], GateKind::Input, [], parsim_netlist::Delay::ZERO);
        }
        for pair in ids.chunks(2) {
            let x = b.gate(GateKind::Xor, pair.iter().copied(), parsim_netlist::Delay::new(1));
            b.output(format!("x{}", x.index()), x);
        }
        b.finish().expect("valid circuit")
    }

    #[test]
    fn events_match_the_materialized_generator() {
        let circuits = [
            shuffled_inputs(),
            generate::random_dag(&generate::RandomDagConfig {
                gates: 200,
                inputs: 20,
                seq_fraction: 0.2,
                seed: 5,
                ..Default::default()
            }),
            bench::c17(),
        ];
        for c in &circuits {
            let inputs = c.inputs();
            assert!(inputs.windows(2).any(|w| w[0] > w[1]) || c.name() != "shuffled_inputs");
            let name = |i: usize| c.gate(inputs[i % inputs.len()]).name().unwrap().to_owned();
            let replay = vec![
                (9, name(1), true),
                (0, name(0), true),
                (4, name(2), true),
                (4, name(2), false),
                (1, "clk".to_owned(), true),
                (3, "nowhere".to_owned(), true),
                (500, name(3), true),
            ];
            let vectors: Vec<Vec<bool>> = (0..5)
                .map(|v| (0..inputs.len() + v - 2).map(|i| (i * v) % 3 == 1).collect())
                .collect();
            let stimuli = [
                Stimulus::random_with_toggle(3, 12, 0.05),
                Stimulus::random(190, 12),
                Stimulus::random_with_toggle(4, 5, 1.0),
                Stimulus::counting(7),
                Stimulus::vectors(9, vectors),
                Stimulus::quiet(12),
                Stimulus::replay(replay),
            ];
            for s in stimuli {
                for stim in [s.clone(), s.clone().with_clock(7), s.with_clock(3)] {
                    for until in [0, 1, 12, 53, 150, 700] {
                        let until = VirtualTime::new(until);
                        assert_eq!(
                            stim.events::<Bit>(c, until),
                            materialized::<Bit>(&stim, c, until),
                            "{} {stim:?} until {until}",
                            c.name()
                        );
                        assert_eq!(
                            stim.events::<parsim_logic::Logic4>(c, until),
                            materialized::<parsim_logic::Logic4>(&stim, c, until),
                        );
                    }
                }
            }
        }
        let until = VirtualTime::new(u64::MAX - 1);
        let near_max = Stimulus::counting(1 << 62).with_clock(1 << 61);
        let lfsr = generate::lfsr(4, DelayModel::Unit);
        assert_eq!(
            near_max.events::<Bit>(&lfsr, until),
            materialized::<Bit>(&near_max, &lfsr, until)
        );
    }

    /// The integer threshold decides every draw the way `random_bool`
    /// does, at the threshold's edges and on a stream of real draws.
    #[test]
    fn threshold_draw_is_random_bool() {
        let c = bench::c17();
        let ps = [0.0, 1e-300, 1e-17, 0.05, 1.0 / 3.0, 0.5, 0.9, 1.0 - f64::EPSILON, 1.0];
        for p in ps {
            let stim = Stimulus::random_with_toggle(7, 1, p);
            let threshold = stim.changes(&c, VirtualTime::new(1)).threshold;
            let scale = 1.0 / (1u64 << 53) as f64;
            for m in [threshold.saturating_sub(1), threshold, threshold + 1] {
                let m = m.min((1 << 53) - 1);
                assert_eq!(m < threshold, (m as f64 * scale) < p, "p = {p}, m = {m}");
            }
            let (mut a, mut b) = (StdRng::seed_from_u64(9), StdRng::seed_from_u64(9));
            for _ in 0..10_000 {
                assert_eq!(a.random_bool(p), b.next_u64() >> 11 < threshold, "p = {p}");
            }
        }
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
