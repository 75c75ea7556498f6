//! `PackedStimulus::events` pinned, field for field, to the transposition
//! the crate first shipped: 64 scalar `Stimulus::events` lists, each sorted
//! by time, merged one timestamp at a time. That merge is kept below as
//! the reference. Every pattern, with and without a clock, at 1, 17 and 64
//! lanes (uniform and mixed cadences), and at horizons 0, 1, exactly one
//! interval, a non-multiple and a long run, must give the same packed
//! events: time, net, lane mask, and every lane of the value word.

use parsim_bitsim::{PackedBit, PackedEvent, PackedLogic4, PackedStimulus, PackedValue, LANES};
use parsim_core::Stimulus;
use parsim_event::{Event, VirtualTime};
use parsim_logic::GateKind;
use parsim_netlist::{generate, Circuit, CircuitBuilder, Delay};

/// The reference transposition: each lane's scalar stream in time order
/// (stable, so a lane driving one net twice at one time keeps its stream
/// order and the later value wins), merged one timestamp at a time.
fn reference<P: PackedValue>(
    stim: &PackedStimulus,
    circuit: &Circuit,
    until: VirtualTime,
) -> Vec<PackedEvent<P>> {
    let lanes: Vec<Vec<Event<P::Scalar>>> = (0..stim.lanes())
        .map(|k| {
            let mut lane = stim.lane(k).events(circuit, until);
            lane.sort_by_key(|e| e.time);
            lane
        })
        .collect();
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

/// A circuit whose primary inputs are declared out of gate-id order, with
/// two clock inputs (`clk` and `__clk`) among the data inputs.
fn shuffled_inputs() -> Circuit {
    let mut b = CircuitBuilder::new("shuffled_inputs");
    let names = ["d0", "clk", "d1", "d2", "__clk", "d3", "d4"];
    let ids: Vec<_> = names.iter().map(|n| b.declare(*n)).collect();
    for &i in &[5usize, 0, 4, 2, 6, 1, 3] {
        b.define(ids[i], GateKind::Input, [], Delay::ZERO);
    }
    let one = Delay::new(1);
    let x = b.gate(GateKind::Xor, [ids[0], ids[2], ids[3]], one);
    let q = b.gate(GateKind::Dff, [ids[1], x], one);
    let r = b.gate(GateKind::Dff, [ids[4], ids[5]], one);
    let y = b.gate(GateKind::Nand, [q, r, ids[6]], one);
    b.output("y", y);
    b.finish().expect("valid circuit")
}

/// A sequential random DAG: 24 data inputs and a `clk`.
fn dag() -> Circuit {
    generate::random_dag(&generate::RandomDagConfig {
        gates: 300,
        inputs: 24,
        seq_fraction: 0.15,
        seed: 41,
        ..Default::default()
    })
}

/// The base interval; `mixed` lanes cycle through other cadences too.
const INTERVAL: u64 = 12;

/// Lane `k`'s vector interval and clock half-period.
fn cadence(k: u64, mixed: bool) -> (u64, u64) {
    if mixed {
        ([INTERVAL, 5, 9, INTERVAL][k as usize % 4], [7, 3, 7, 4][k as usize % 4])
    } else {
        (INTERVAL, 7)
    }
}

/// Replayed changes for lane `k`: unsorted, a net driven twice at one
/// time (the later value wins), a clock name (replay drives it as data),
/// a name that is no input, and changes at and past any horizon tested.
fn replayed(circuit: &Circuit, k: u64) -> Vec<(u64, String, bool)> {
    let name = |i: usize| {
        let inputs = circuit.inputs();
        let id = inputs[(i + k as usize) % inputs.len()];
        circuit.gate(id).name().expect("inputs are named").to_owned()
    };
    let mut changes = vec![
        (30 + k % 5, name(1), true),
        (0, name(0), k.is_multiple_of(2)),
        (4, name(2), true),
        (4, name(2), false),
        (4, name(3), true),
        (INTERVAL, name(1), true),
        (9, "no_such_input".to_owned(), true),
        (1, "clk".to_owned(), true),
        (200, name(0), true),
        (4, name(4), k.is_multiple_of(3)),
    ];
    changes.truncate(4 + k as usize % 7);
    changes
}

/// Lane `k`'s stimulus, given `(k, mixed cadences, clocked)`.
type Pattern<'a> = Box<dyn Fn(u64, bool, bool) -> Stimulus + 'a>;

/// Every pattern the stimulus has, for lane `k`, with or without a clock.
fn patterns(circuit: &Circuit) -> Vec<(&'static str, Pattern<'_>)> {
    let clocked = |s: Stimulus, k: u64, mixed: bool, clock: bool| {
        if clock {
            s.with_clock(cadence(k, mixed).1)
        } else {
            s
        }
    };
    let n = circuit.inputs().len();
    vec![
        (
            "random 0.05",
            Box::new(move |k, mixed, clock| {
                let s = Stimulus::random_with_toggle(k * 31 + 7, cadence(k, mixed).0, 0.05);
                clocked(s, k, mixed, clock)
            }),
        ),
        (
            "random 0.5",
            Box::new(move |k, mixed, clock| {
                clocked(Stimulus::random(k * 17 + 190, cadence(k, mixed).0), k, mixed, clock)
            }),
        ),
        (
            "counting",
            Box::new(move |k, mixed, clock| {
                clocked(Stimulus::counting(cadence(k, mixed).0), k, mixed, clock)
            }),
        ),
        (
            "explicit",
            Box::new(move |k, mixed, clock| {
                // Vectors shorter and longer than the inputs, cycled.
                let vectors = (0..3 + k as usize % 3)
                    .map(|v| {
                        (0..(n + v) % (n + 2))
                            .map(|i| (i + v + k as usize).is_multiple_of(3))
                            .collect()
                    })
                    .collect();
                clocked(Stimulus::vectors(cadence(k, mixed).0, vectors), k, mixed, clock)
            }),
        ),
        (
            "quiet",
            Box::new(move |k, mixed, clock| {
                clocked(Stimulus::quiet(cadence(k, mixed).0), k, mixed, clock)
            }),
        ),
        (
            "replay",
            Box::new(move |k, mixed, clock| {
                clocked(Stimulus::replay(replayed(circuit, k)), k, mixed, clock)
            }),
        ),
    ]
}

fn assert_same<P: PackedValue>(stim: &PackedStimulus, circuit: &Circuit, until: u64, case: &str) {
    let until = VirtualTime::new(until);
    let got = stim.events::<P>(circuit, until);
    let want = reference::<P>(stim, circuit, until);
    assert_eq!(got.len(), want.len(), "{case}: event count");
    for (i, (g, w)) in got.iter().zip(&want).enumerate() {
        assert_eq!((g.time, g.net, g.mask), (w.time, w.net, w.mask), "{case}: event {i}");
        for k in 0..LANES {
            assert_eq!(g.value.lane(k), w.value.lane(k), "{case}: event {i}, lane {k}");
        }
        assert_eq!(g.value, w.value, "{case}: event {i}, value word");
    }
}

#[test]
fn packed_events_match_the_reference_transposition() {
    for circuit in [shuffled_inputs(), dag()] {
        let mut nonempty = 0;
        for (name, pattern) in patterns(&circuit) {
            for clock in [false, true] {
                for lanes in [1u64, 17, LANES as u64] {
                    for mixed in [false, true] {
                        let stim = PackedStimulus::new(
                            (0..lanes).map(|k| pattern(k, mixed, clock)).collect(),
                        );
                        for until in [0, 1, INTERVAL, 4 * INTERVAL + 5, 150] {
                            let case = format!(
                                "{} {name} clock={clock} lanes={lanes} mixed={mixed} until={until}",
                                circuit.name()
                            );
                            assert_same::<PackedBit>(&stim, &circuit, until, &case);
                            assert_same::<PackedLogic4>(&stim, &circuit, until, &case);
                            let until = VirtualTime::new(until);
                            nonempty +=
                                usize::from(!stim.events::<PackedBit>(&circuit, until).is_empty());
                        }
                    }
                }
            }
        }
        assert!(nonempty > 100, "{}: vacuous pin ({nonempty} non-empty cases)", circuit.name());
    }
}
