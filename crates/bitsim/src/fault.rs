//! The bit-parallel fault-campaign fast path.
//!
//! The paper's §II motivates bit parallelism with fault simulation: the
//! campaign runs the *same* vectors against many independent faulty
//! machines, which packs perfectly into lanes. Where
//! [`parsim_core::fault::simulate_faults`] builds and simulates one faulty
//! circuit per fault, this module simulates up to [`LANES`] faulty machines
//! per packed pass — lane `k` carries fault `k` of the chunk, injected by
//! holding the faulty net at its stuck value ([`PackedForce`]) instead of
//! rewiring the netlist. The two are observably equivalent, and
//! [`simulate_faults_packed`] returns the same [`FaultReport`] the serial
//! campaign does (asserted by the differential suite).

use std::collections::BTreeMap;

use parsim_core::fault::{FaultReport, StuckAtFault};
use parsim_core::{Observe, SequentialSimulator, Simulator, Stimulus};
use parsim_event::VirtualTime;
use parsim_logic::LogicValue;
use parsim_netlist::Circuit;

use crate::packed::{PackedValue, LANES};
use crate::sim::{BitSimulator, PackedForce};
use crate::stimulus::PackedStimulus;

/// Runs a stuck-at fault campaign with up to [`LANES`] faulty machines per
/// packed pass.
///
/// The good machine is simulated once by the scalar
/// [`SequentialSimulator`]; faults are then chunked 64 at a time, each chunk
/// simulated as one packed run of `sim` with every lane driven by the same
/// `stimulus` and lane `k` forcing fault `k`'s net to its stuck value. A
/// fault is *detected* if any primary-output waveform of its lane differs
/// from the good machine's — the same criterion (and the same report) as
/// the serial campaign.
///
/// # Panics
///
/// Panics if the circuit has non-unit gate delays (the bit-parallel
/// kernel's precondition).
pub fn simulate_faults_packed<P: PackedValue>(
    sim: &BitSimulator<P>,
    circuit: &Circuit,
    faults: &[StuckAtFault],
    stimulus: &Stimulus,
    until: VirtualTime,
) -> FaultReport {
    let good = SequentialSimulator::<P::Scalar>::new()
        .with_observe(Observe::Outputs)
        .run(circuit, stimulus, until);

    let mut detected = Vec::with_capacity(faults.len());
    for chunk in faults.chunks(LANES) {
        let lanes = chunk.len();
        let packed_stim = PackedStimulus::new(vec![stimulus.clone(); lanes]);
        let events = packed_stim.events::<P>(circuit, until);
        // One force per distinct faulty net, masks merged across the chunk.
        let mut merged: BTreeMap<usize, PackedForce<P>> = BTreeMap::new();
        for (k, fault) in chunk.iter().enumerate() {
            let f = merged.entry(fault.net.index()).or_insert(PackedForce {
                net: fault.net,
                mask: 0,
                value: P::ALL_ZERO,
            });
            f.mask |= 1 << k;
            f.value.set_lane(k, if fault.value { P::Scalar::ONE } else { P::Scalar::ZERO });
        }
        let forces: Vec<PackedForce<P>> = merged.into_values().collect();
        let out = sim.run_events_forced(circuit, events, lanes, until, &forces);
        for (k, &fault) in chunk.iter().enumerate() {
            let differs = circuit
                .outputs()
                .iter()
                .any(|po| out.waveforms[po].lane_waveform(k) != good.waveforms[po]);
            detected.push((fault, differs));
        }
    }
    FaultReport { detected }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packed::{PackedBit, PackedLogic4};
    use parsim_core::fault::{enumerate_faults, simulate_faults};
    use parsim_logic::{Bit, GateKind, Logic4};
    use parsim_netlist::{bench, generate, CircuitBuilder, Delay, DelayModel};

    #[test]
    fn packed_campaign_matches_serial_on_c17() {
        let c = bench::c17();
        let vectors: Vec<Vec<bool>> =
            (0u32..32).map(|p| (0..5).map(|i| p >> i & 1 == 1).collect()).collect();
        let stimulus = Stimulus::vectors(16, vectors);
        let faults = enumerate_faults(&c);
        let until = VirtualTime::new(32 * 16);
        let serial = simulate_faults::<Bit>(&c, &faults, &stimulus, until);
        let packed = simulate_faults_packed::<PackedBit>(
            &BitSimulator::new(),
            &c,
            &faults,
            &stimulus,
            until,
        );
        assert_eq!(packed, serial);
        assert_eq!(packed.coverage(), 1.0);
    }

    #[test]
    fn packed_campaign_matches_serial_on_partial_coverage() {
        let c = bench::c17();
        let stimulus = Stimulus::vectors(16, vec![vec![false; 5]]);
        let faults = enumerate_faults(&c);
        let until = VirtualTime::new(64);
        let serial = simulate_faults::<Logic4>(&c, &faults, &stimulus, until);
        let packed = simulate_faults_packed::<PackedLogic4>(
            &BitSimulator::new(),
            &c,
            &faults,
            &stimulus,
            until,
        );
        assert_eq!(packed, serial);
        assert!(packed.coverage() < 1.0);
    }

    #[test]
    fn packed_campaign_matches_serial_on_sequential_circuit() {
        let c = generate::counter(4, DelayModel::Unit);
        let faults = enumerate_faults(&c);
        let stimulus = Stimulus::quiet(100_000).with_clock(5);
        let until = VirtualTime::new(200);
        let serial = simulate_faults::<Bit>(&c, &faults, &stimulus, until);
        let packed = simulate_faults_packed::<PackedBit>(
            &BitSimulator::new(),
            &c,
            &faults,
            &stimulus,
            until,
        );
        assert_eq!(packed, serial);
    }

    #[test]
    fn chunking_covers_more_than_one_word_of_faults() {
        let c = generate::random_dag(&generate::RandomDagConfig {
            gates: 80,
            seq_fraction: 0.1,
            seed: 21,
            ..Default::default()
        });
        let faults = enumerate_faults(&c);
        assert!(faults.len() > LANES, "need a multi-chunk campaign");
        let stimulus = Stimulus::random(7, 6).with_clock(4);
        let until = VirtualTime::new(120);
        let serial = simulate_faults::<Bit>(&c, &faults, &stimulus, until);
        let packed = simulate_faults_packed::<PackedBit>(
            &BitSimulator::new(),
            &c,
            &faults,
            &stimulus,
            until,
        );
        assert_eq!(packed, serial);
    }

    /// A constant-1 driver is high in every lane of every faulty machine,
    /// as it is in each serial run: `y = a AND 1` follows `a`, so the
    /// faults on `b`, which only `b AND 0` reads, stay undetected in both
    /// campaigns.
    #[test]
    fn packed_campaign_drives_constant_ones_like_serial() {
        let mut b = CircuitBuilder::new("consts");
        let a = b.input("a");
        let bb = b.input("b");
        let (one, zero) = (b.constant(true), b.constant(false));
        let y = b.gate(GateKind::And, [a, one], Delay::UNIT);
        let z = b.gate(GateKind::Not, [y], Delay::UNIT);
        let q = b.gate(GateKind::And, [bb, zero], Delay::UNIT);
        b.output("y", y);
        b.output("z", z);
        b.output("q", q);
        let c = b.finish().unwrap();
        let faults = enumerate_faults(&c);
        let stimulus = Stimulus::random(3, 5);
        let until = VirtualTime::new(60);
        let serial = simulate_faults::<Bit>(&c, &faults, &stimulus, until);
        let undetected = serial.undetected();
        assert!(undetected.contains(&StuckAtFault { net: bb, value: true }), "{undetected:?}");
        assert!(undetected.contains(&StuckAtFault { net: bb, value: false }), "{undetected:?}");
        let packed = simulate_faults_packed::<PackedBit>(
            &BitSimulator::new(),
            &c,
            &faults,
            &stimulus,
            until,
        );
        assert_eq!(packed, serial);
    }
}
