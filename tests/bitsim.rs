//! The bit-parallel kernel's determinism contract, end to end: lane `k` of
//! one packed run is bit-identical to scalar run `k` — against the
//! sequential reference, across value systems, with X-seeded lanes, and
//! through the fault-campaign fast path.

use parsim::bitsim::{PackedEvent, LANES};
use parsim::core::fault;
use parsim::prelude::*;

/// One packed run vs. `lanes` scalar `SequentialSimulator` runs: every
/// lane's projected outcome must be divergence-free against its scalar
/// twin.
fn lanes_vs_scalar<P: PackedValue>(circuit: &Circuit, stim: &PackedStimulus, until: u64) {
    let until = VirtualTime::new(until);
    let scalar: Vec<SimOutcome<P::Scalar>> = (0..stim.lanes())
        .map(|k| {
            SequentialSimulator::<P::Scalar>::new().with_observe(Observe::AllNets).run(
                circuit,
                stim.lane(k),
                until,
            )
        })
        .collect();
    assert!(
        scalar.iter().any(|o| o.stats.events_processed > 0),
        "vacuous test on {}: no events at all",
        circuit.name()
    );
    let packed = BitSimulator::<P>::new().with_observe(Observe::AllNets).run(circuit, stim, until);
    for (k, reference) in scalar.iter().enumerate() {
        if let Some(d) = packed.lane_outcome(k).divergence_from(reference) {
            panic!("lane {k} diverged from sequential on {}: {d}", circuit.name());
        }
    }
}

/// 64 distinct random stimuli, optionally clocked.
fn full_width_stimulus(seed: u64, interval: u64, clock: Option<u64>) -> PackedStimulus {
    PackedStimulus::new(
        (0..LANES as u64)
            .map(|k| {
                let s = Stimulus::random(seed + k, interval);
                match clock {
                    Some(half) => s.with_clock(half),
                    None => s,
                }
            })
            .collect(),
    )
}

#[test]
fn c17_64_lanes_both_value_systems() {
    let c = bench::c17();
    let stim = full_width_stimulus(1, 7, None);
    lanes_vs_scalar::<PackedBit>(&c, &stim, 200);
    lanes_vs_scalar::<PackedLogic4>(&c, &stim, 200);
}

#[test]
fn s27ish_64_lanes_both_value_systems() {
    let c = bench::s27ish();
    let stim = full_width_stimulus(40, 11, Some(6));
    lanes_vs_scalar::<PackedBit>(&c, &stim, 300);
    lanes_vs_scalar::<PackedLogic4>(&c, &stim, 300);
}

#[test]
fn random_dags_64_lanes() {
    for seed in [2, 5] {
        let c = generate::random_dag(&generate::RandomDagConfig {
            gates: 400,
            seq_fraction: 0.15,
            seed,
            ..Default::default()
        });
        let stim = full_width_stimulus(seed * 100, 9, Some(5));
        lanes_vs_scalar::<PackedBit>(&c, &stim, 250);
        lanes_vs_scalar::<PackedLogic4>(&c, &stim, 250);
    }
}

#[test]
fn x_seeded_lanes_stay_lane_exact() {
    // Seed X on one primary input in the upper 32 lanes at t = 0. The
    // unseeded lanes must stay bit-identical to plain scalar runs — an X
    // next door may not leak across lane boundaries. The seeded lanes are
    // cross-checked against a second, 32-lane packed run carrying the same
    // machines at *different* lane positions (every lane X-seeded): the two
    // word layouts must agree lane for lane, and the X must actually
    // propagate somewhere.
    let c = bench::c17();
    let until = VirtualTime::new(150);
    let stim = full_width_stimulus(60, 10, None);
    let seeded_net = c.inputs()[2];
    let x_mask: u64 = !0u64 << 32;

    let mut events = stim.events::<PackedLogic4>(&c, until);
    events.push(PackedEvent {
        time: VirtualTime::ZERO,
        net: seeded_net,
        mask: x_mask,
        value: PackedLogic4::splat(Logic4::X),
    });
    let sim = BitSimulator::<PackedLogic4>::new().with_observe(Observe::AllNets);
    let packed = sim.run_events(&c, events, LANES, until);

    for k in 0..32 {
        let reference = SequentialSimulator::<Logic4>::new().with_observe(Observe::AllNets).run(
            &c,
            stim.lane(k),
            until,
        );
        if let Some(d) = packed.lane_outcome(k).divergence_from(&reference) {
            panic!("unseeded lane {k} diverged: {d}");
        }
    }

    let upper = PackedStimulus::new((32..LANES).map(|k| stim.lane(k).clone()).collect());
    let mut upper_events = upper.events::<PackedLogic4>(&c, until);
    upper_events.push(PackedEvent {
        time: VirtualTime::ZERO,
        net: seeded_net,
        mask: u64::MAX >> 32,
        value: PackedLogic4::splat(Logic4::X),
    });
    let repacked = sim.run_events(&c, upper_events, 32, until);
    let mut x_seen = false;
    for k in 0..32 {
        let a = packed.lane_outcome(32 + k);
        let b = repacked.lane_outcome(k);
        if let Some(d) = a.divergence_from(&b) {
            panic!("seeded lane {} disagrees across packings: {d}", 32 + k);
        }
        x_seen |= c
            .outputs()
            .iter()
            .any(|po| a.waveforms[po].transitions().iter().any(|&(_, v)| v.is_unknown()));
    }
    assert!(x_seen, "the seeded X never reached a primary output on any lane");
}

#[test]
fn packed_fault_campaign_matches_serial() {
    let c = bench::c17();
    let vectors: Vec<Vec<bool>> =
        (0u32..32).map(|p| (0..5).map(|i| p >> i & 1 == 1).collect()).collect();
    let stimulus = Stimulus::vectors(16, vectors);
    let faults = fault::enumerate_faults(&c);
    let until = VirtualTime::new(32 * 16);
    let serial = fault::simulate_faults::<Bit>(&c, &faults, &stimulus, until);
    let packed =
        simulate_faults_packed::<PackedBit>(&BitSimulator::new(), &c, &faults, &stimulus, until);
    assert_eq!(packed, serial);
    assert_eq!(packed.coverage(), 1.0);
}
