//! Transposing scalar stimulus streams and waveforms into packed lanes.

use std::collections::BTreeMap;

use parsim_core::{SimOutcome, SimStats, Stimulus, Waveform};
use parsim_event::{Event, VirtualTime};
use parsim_netlist::{Circuit, GateId};

use crate::packed::{PackedValue, LANES};

/// A bundle of up to [`LANES`] independent scalar [`Stimulus`] streams,
/// one per lane.
///
/// The packed kernel simulates all lanes in one pass; lane `k` of the
/// result is bit-identical to a scalar run driven by `lane(k)` alone —
/// the transposition is what lets the differential harness compare one
/// packed run against 64 `SequentialSimulator` runs.
///
/// # Examples
///
/// ```
/// use parsim_bitsim::PackedStimulus;
/// use parsim_core::Stimulus;
///
/// let stim = PackedStimulus::new(
///     (0..64).map(|k| Stimulus::random(k, 10).with_clock(6)).collect(),
/// );
/// assert_eq!(stim.lanes(), 64);
/// ```
#[derive(Debug, Clone)]
pub struct PackedStimulus {
    lanes: Vec<Stimulus>,
}

impl PackedStimulus {
    /// Bundles the given per-lane stimuli.
    ///
    /// # Panics
    ///
    /// Panics unless `1 ≤ lanes.len() ≤ 64`.
    pub fn new(lanes: Vec<Stimulus>) -> Self {
        assert!(
            (1..=LANES).contains(&lanes.len()),
            "a packed stimulus carries 1..={LANES} lanes, got {}",
            lanes.len()
        );
        PackedStimulus { lanes }
    }

    /// Bundles 64 lanes of the same stimulus (the fault-campaign shape:
    /// identical vectors, per-lane fault injection).
    pub fn splat(stimulus: &Stimulus) -> Self {
        PackedStimulus { lanes: vec![stimulus.clone(); LANES] }
    }

    /// Number of populated lanes.
    pub fn lanes(&self) -> usize {
        self.lanes.len()
    }

    /// The scalar stimulus of lane `k`.
    pub fn lane(&self, k: usize) -> &Stimulus {
        &self.lanes[k]
    }

    /// Transposes the per-lane scalar event streams into packed events:
    /// one [`PackedEvent`] per `(time, net)` carrying the lane mask and the
    /// per-lane values, sorted by `(time, net)` like every scalar kernel's
    /// input queue.
    pub fn events<P: PackedValue>(
        &self,
        circuit: &Circuit,
        until: VirtualTime,
    ) -> Vec<PackedEvent<P>> {
        // Each lane's stream in time order. Stable, so a lane driving one
        // net twice at one time keeps its stream order and the later value
        // wins below.
        let lanes: Vec<Vec<Event<P::Scalar>>> = self
            .lanes
            .iter()
            .map(|stim| {
                let mut lane = stim.events(circuit, until);
                lane.sort_by_key(|e| e.time);
                lane
            })
            .collect();
        // Merge the lanes one timestamp at a time. `slot[net]` is where
        // the packed event of `net` at the timestamp being merged sits in
        // `events`; an entry left by an earlier timestamp points below
        // `start` and is stale.
        let mut cursor = vec![0usize; lanes.len()];
        let mut slot = vec![usize::MAX; circuit.len()];
        let mut events: Vec<PackedEvent<P>> = Vec::new();
        let next_time = |cursor: &[usize]| {
            lanes.iter().zip(cursor).filter_map(|(lane, &c)| lane.get(c)).map(|e| e.time).min()
        };
        while let Some(time) = next_time(&cursor) {
            let start = events.len();
            for (k, (lane, c)) in lanes.iter().zip(&mut cursor).enumerate() {
                while let Some(e) = lane.get(*c).filter(|e| e.time == time) {
                    *c += 1;
                    let net = e.net;
                    if !(start..events.len()).contains(&slot[net.index()]) {
                        slot[net.index()] = events.len();
                        events.push(PackedEvent { time, net, mask: 0, value: P::ALL_ZERO });
                    }
                    let packed = &mut events[slot[net.index()]];
                    packed.mask |= 1 << k;
                    packed.value.set_lane(k, e.value);
                }
            }
            events[start..].sort_unstable_by_key(|e| e.net);
        }
        events
    }
}

/// A packed input event: at `time`, drive `net` in the lanes of `mask`
/// with the corresponding lanes of `value`.
#[derive(Debug, Clone, Copy)]
pub struct PackedEvent<P> {
    /// When the event applies.
    pub time: VirtualTime,
    /// The driven net.
    pub net: GateId,
    /// Which lanes carry an event (bit `k` = lane `k`).
    pub mask: u64,
    /// The driven values; lanes outside `mask` are ignored.
    pub value: P,
}

/// A packed waveform: the transition history of one net across all lanes.
///
/// Entries are appended whenever *any* lane changes; extracting a lane
/// re-runs the scalar [`Waveform`] recording rules, so
/// [`lane_waveform`](PackedWaveform::lane_waveform) reproduces the scalar
/// run's waveform exactly (same transitions, same coalescing).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PackedWaveform<P> {
    transitions: Vec<(VirtualTime, P)>,
}

impl<P: PackedValue> PackedWaveform<P> {
    /// Creates a waveform with the given initial packed value at `t = 0`.
    pub fn new(initial: P) -> Self {
        PackedWaveform { transitions: vec![(VirtualTime::ZERO, initial)] }
    }

    /// Appends a packed transition, mirroring [`Waveform::record`]: a
    /// same-time record overwrites, an unchanged word is coalesced.
    pub fn record(&mut self, time: VirtualTime, value: P) {
        let last = self.transitions.last_mut().expect("waveform always has an initial entry");
        assert!(time >= last.0, "waveform transitions must be recorded in time order");
        if last.0 == time {
            last.1 = value;
        } else if last.1 != value {
            self.transitions.push((time, value));
        }
    }

    /// All packed transitions, in time order.
    pub fn transitions(&self) -> &[(VirtualTime, P)] {
        &self.transitions
    }

    /// The scalar waveform seen by lane `k`.
    pub fn lane_waveform(&self, k: usize) -> Waveform<P::Scalar> {
        let mut iter = self.transitions.iter();
        let &(_, first) = iter.next().expect("waveform always has an initial entry");
        let mut w = Waveform::new(first.lane(k));
        for &(t, v) in iter {
            w.record(t, v.lane(k));
        }
        w
    }
}

/// The result of one packed run: final values, waveforms and stats for all
/// lanes at once.
#[derive(Debug, Clone)]
pub struct PackedOutcome<P> {
    /// Final packed value of every net (indexed by `GateId::index`).
    pub final_values: Vec<P>,
    /// Packed waveforms of the observed nets.
    pub waveforms: BTreeMap<GateId, PackedWaveform<P>>,
    /// The simulation horizon that was reached.
    pub end_time: VirtualTime,
    /// Aggregate counters. `gate_evaluations` counts packed *word*
    /// evaluations — multiply by [`lanes`](PackedOutcome::lanes) for the
    /// scalar-equivalent count; `events_processed` counts applied scalar
    /// events summed over lanes.
    pub stats: SimStats,
    /// Number of populated lanes.
    pub lanes: usize,
}

impl<P: PackedValue> PackedOutcome<P> {
    /// Projects lane `k` out as a scalar [`SimOutcome`], directly
    /// comparable (via `divergence_from`) with a scalar kernel's result.
    ///
    /// The projected outcome carries the packed run's aggregate stats —
    /// waveforms and final values are per-lane exact, counters are not
    /// per-lane quantities (and `divergence_from` ignores them).
    pub fn lane_outcome(&self, k: usize) -> SimOutcome<P::Scalar> {
        assert!(k < self.lanes, "lane {k} out of {} populated lanes", self.lanes);
        SimOutcome {
            final_values: self.final_values.iter().map(|&p| p.lane(k)).collect(),
            waveforms: self.waveforms.iter().map(|(&id, w)| (id, w.lane_waveform(k))).collect(),
            end_time: self.end_time,
            stats: self.stats,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packed::PackedBit;
    use parsim_logic::Bit;
    use parsim_netlist::bench;

    #[test]
    fn transposition_matches_scalar_event_streams() {
        let c = bench::c17();
        let until = VirtualTime::new(80);
        let stim = PackedStimulus::new((0..7).map(|k| Stimulus::random(k + 1, 9)).collect());
        let packed = stim.events::<PackedBit>(&c, until);
        // Sorted by (time, net), like the scalar kernels' input queues.
        for pair in packed.windows(2) {
            assert!((pair[0].time, pair[0].net.index()) < (pair[1].time, pair[1].net.index()));
        }
        for k in 0..stim.lanes() {
            let scalar = stim.lane(k).events::<Bit>(&c, until);
            let from_packed: Vec<(VirtualTime, usize, Bit)> = packed
                .iter()
                .filter(|e| e.mask >> k & 1 == 1)
                .map(|e| (e.time, e.net.index(), e.value.lane(k)))
                .collect();
            let want: Vec<(VirtualTime, usize, Bit)> =
                scalar.iter().map(|e| (e.time, e.net.index(), e.value)).collect();
            assert_eq!(from_packed, want, "lane {k}");
        }
    }

    /// The transposition this module shipped with, kept as the model: one
    /// `BTreeMap` entry call per scalar event.
    fn tree_transposition<P: PackedValue>(
        stim: &PackedStimulus,
        circuit: &Circuit,
        until: VirtualTime,
    ) -> Vec<(VirtualTime, GateId, u64, P)> {
        let mut grouped: BTreeMap<(VirtualTime, usize), (u64, P)> = BTreeMap::new();
        for k in 0..stim.lanes() {
            for e in stim.lane(k).events::<P::Scalar>(circuit, until) {
                let entry = grouped.entry((e.time, e.net.index())).or_insert((0, P::ALL_ZERO));
                entry.0 |= 1 << k;
                entry.1.set_lane(k, e.value);
            }
        }
        grouped.into_iter().map(|((t, n), (mask, v))| (t, GateId::new(n), mask, v)).collect()
    }

    #[test]
    fn merge_transposition_matches_the_tree_transposition() {
        use crate::packed::PackedLogic4;
        use parsim_netlist::generate;
        let c = generate::random_dag(&generate::RandomDagConfig {
            gates: 300,
            inputs: 24,
            seed: 6,
            ..Default::default()
        });
        // 64 clocked random lanes with different cadences, so timestamps
        // are shared by some lanes and private to others.
        let random = PackedStimulus::new(
            (0..LANES as u64)
                .map(|k| Stimulus::random(k * 7 + 1, 3 + k % 5).with_clock(2 + k % 4))
                .collect(),
        );
        // A replayed lane that drives one input twice at one time: the
        // later value must win, as it did in the tree.
        let name = c.gate(c.inputs()[1]).name().expect("inputs are named").to_owned();
        let twice = vec![(4, name.clone(), true), (4, name.clone(), false), (9, name, true)];
        let replayed = PackedStimulus::new(vec![
            Stimulus::replay(twice),
            Stimulus::counting(4),
            Stimulus::quiet(10).with_clock(3),
        ]);
        for (stim, until) in [(&random, 160), (&replayed, 40), (&random, 0)] {
            let until = VirtualTime::new(until);
            let merged: Vec<_> = stim
                .events::<PackedLogic4>(&c, until)
                .into_iter()
                .map(|e| (e.time, e.net, e.mask, e.value))
                .collect();
            assert_eq!(merged, tree_transposition::<PackedLogic4>(stim, &c, until));
        }
    }

    #[test]
    fn lane_waveform_extraction_coalesces_like_scalar_recording() {
        let mut pw = PackedWaveform::new(PackedBit(0));
        // Lane 0 toggles at t=1 and t=3; lane 1 only at t=3; t=0 overwrite.
        pw.record(VirtualTime::ZERO, PackedBit(0b10));
        pw.record(VirtualTime::new(1), PackedBit(0b11));
        pw.record(VirtualTime::new(2), PackedBit(0b11));
        pw.record(VirtualTime::new(3), PackedBit(0b00));
        let w0 = pw.lane_waveform(0);
        let mut want0 = Waveform::new(Bit::Zero);
        want0.record(VirtualTime::new(1), Bit::One);
        want0.record(VirtualTime::new(3), Bit::Zero);
        assert_eq!(w0, want0);
        let w1 = pw.lane_waveform(1);
        let mut want1 = Waveform::new(Bit::One);
        want1.record(VirtualTime::new(3), Bit::Zero);
        assert_eq!(w1, want1);
    }

    #[test]
    #[should_panic(expected = "1..=64 lanes")]
    fn rejects_too_many_lanes() {
        let _ = PackedStimulus::new(vec![Stimulus::quiet(10); 65]);
    }
}
