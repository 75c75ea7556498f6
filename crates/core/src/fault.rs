//! Serial stuck-at fault simulation.
//!
//! The paper's §II observes that *data parallelism* "is quite effective for
//! fault simulation, where a large number of independent input vectors need
//! to be simulated" — fault simulation being the other big simulation
//! workload besides design verification. This module provides the
//! fault-model substrate: stuck-at-0/1 fault enumeration, fault injection
//! by circuit transformation (the faulty net's driver is replaced by a
//! constant), and a serial fault-simulation campaign measuring test-vector
//! coverage. Each fault's simulation is independent, which is exactly the
//! embarrassing parallelism §II describes.

use std::fmt::{self, Display};

use parsim_event::VirtualTime;
use parsim_logic::{GateKind, LogicValue};
use parsim_netlist::{Circuit, CircuitBuilder, GateId};

use crate::{Observe, SequentialSimulator, Simulator, Stimulus};

/// A single stuck-at fault: the net driven by `net` is stuck at `value`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct StuckAtFault {
    /// The faulty net (identified by its driver).
    pub net: GateId,
    /// `false` = stuck-at-0, `true` = stuck-at-1.
    pub value: bool,
}

impl Display for StuckAtFault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} stuck-at-{}", self.net, u8::from(self.value))
    }
}

/// Enumerates the full single-stuck-at fault list: two faults per net that
/// has at least one reader or is a primary output.
pub fn enumerate_faults(circuit: &Circuit) -> Vec<StuckAtFault> {
    let mut faults = Vec::new();
    for id in circuit.ids() {
        if circuit.fanout(id).is_empty() && !circuit.outputs().contains(&id) {
            continue; // unobservable net
        }
        faults.push(StuckAtFault { net: id, value: false });
        faults.push(StuckAtFault { net: id, value: true });
    }
    faults
}

/// Builds the faulty version of a circuit: identical structure and
/// interface, except every reader of the faulty net (and any primary-output
/// reference to it) is rewired to a new constant driver. The original
/// driver stays in place — crucially, primary inputs keep their position,
/// so the same stimulus drives both machines.
///
/// # Examples
///
/// ```
/// use parsim_core::fault::{inject, StuckAtFault};
/// use parsim_netlist::bench;
///
/// let c = bench::c17();
/// let f = StuckAtFault { net: c.find("10").unwrap(), value: true };
/// let faulty = inject(&c, f);
/// assert_eq!(faulty.len(), c.len() + 1); // one extra constant gate
/// assert_eq!(faulty.inputs().len(), c.inputs().len());
/// ```
pub fn inject(circuit: &Circuit, fault: StuckAtFault) -> Circuit {
    let mut b = CircuitBuilder::new(format!("{}__{}", circuit.name(), fault));
    let mut ids = Vec::with_capacity(circuit.len());
    for (id, g) in circuit.iter() {
        let placeholder = match g.name() {
            Some(n) => b.declare(n.to_owned()),
            None => b.declare(format!("__anon{}", id.index())),
        };
        ids.push(placeholder);
    }
    let stuck = b.constant(fault.value);
    // Define primary inputs first, in the original declaration order, so
    // the faulty circuit's input list (and hence stimulus vector mapping)
    // matches the good machine exactly.
    let define = |b: &mut CircuitBuilder, id: GateId| {
        let g = circuit.gate(id);
        let fanin: Vec<GateId> = g
            .fanin()
            .iter()
            .map(|&f| if f == fault.net { stuck } else { ids[f.index()] })
            .collect();
        b.define(ids[id.index()], g.kind(), fanin, g.delay());
    };
    for &pi in circuit.inputs() {
        define(&mut b, pi);
    }
    for (id, g) in circuit.iter() {
        if g.kind() != GateKind::Input {
            define(&mut b, id);
        }
    }
    for &po in circuit.outputs() {
        let target = if po == fault.net { stuck } else { ids[po.index()] };
        let name = circuit.gate(po).name().map_or_else(|| po.to_string(), str::to_owned);
        b.output(format!("{name}__po"), target);
    }
    b.finish().expect("fault injection preserves structural validity")
}

/// The outcome of a fault-simulation campaign.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultReport {
    /// All simulated faults, with detection status.
    pub detected: Vec<(StuckAtFault, bool)>,
}

impl FaultReport {
    /// Number of detected faults.
    pub fn detected_count(&self) -> usize {
        self.detected.iter().filter(|(_, d)| *d).count()
    }

    /// Fault coverage in `[0, 1]`.
    pub fn coverage(&self) -> f64 {
        if self.detected.is_empty() {
            return 1.0;
        }
        self.detected_count() as f64 / self.detected.len() as f64
    }

    /// The faults the vector set missed.
    pub fn undetected(&self) -> Vec<StuckAtFault> {
        self.detected.iter().filter(|(_, d)| !*d).map(|(f, _)| *f).collect()
    }
}

impl Display for FaultReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}/{} faults detected ({:.1}% coverage)",
            self.detected_count(),
            self.detected.len(),
            self.coverage() * 100.0
        )
    }
}

/// Runs a serial fault-simulation campaign: the good circuit and every
/// faulty variant are simulated against `stimulus`; a fault is *detected*
/// if any primary-output waveform differs from the good machine's.
///
/// Each fault simulation is independent — the §II data-parallel workload —
/// so a caller with real processors can shard `faults` freely. For
/// unit-delay circuits, `parsim-bitsim`'s `simulate_faults_packed` runs the
/// same campaign 64 faulty machines at a time and returns an identical
/// report.
pub fn simulate_faults<V: LogicValue>(
    circuit: &Circuit,
    faults: &[StuckAtFault],
    stimulus: &Stimulus,
    until: VirtualTime,
) -> FaultReport {
    let sim = SequentialSimulator::<V>::new().with_observe(Observe::Outputs);
    let good = sim.run(circuit, stimulus, until);
    let good_waves: Vec<_> = circuit.outputs().iter().map(|po| &good.waveforms[po]).collect();

    let detected = faults
        .iter()
        .map(|&fault| {
            let faulty_circuit = inject(circuit, fault);
            let bad = sim.run(&faulty_circuit, stimulus, until);
            let differs = faulty_circuit
                .outputs()
                .iter()
                .zip(&good_waves)
                .any(|(&po, good_wave)| &&bad.waveforms[&po] != good_wave);
            (fault, differs)
        })
        .collect();
    FaultReport { detected }
}

#[cfg(test)]
mod tests {
    use super::*;
    use parsim_logic::Bit;
    use parsim_netlist::{bench, generate, DelayModel};

    #[test]
    fn enumeration_counts() {
        let c = bench::c17();
        // All 11 nets are observable (5 inputs feed gates, 6 NANDs feed
        // gates or outputs) → 22 faults.
        assert_eq!(enumerate_faults(&c).len(), 22);
    }

    #[test]
    fn injection_rewires_readers() {
        let c = bench::c17();
        let net = c.find("11").unwrap();
        let faulty = inject(&c, StuckAtFault { net, value: true });
        // The driver survives untouched...
        let fnet = faulty.find("11").unwrap();
        assert_eq!(faulty.kind(fnet), GateKind::Nand);
        // ...but its readers (gates 16 and 19) now read a constant 1.
        for reader in ["16", "19"] {
            let r = faulty.find(reader).unwrap();
            let const_input = faulty.fanin(r).iter().find(|&&f| faulty.kind(f) == GateKind::Const1);
            assert!(const_input.is_some(), "{reader} not rewired");
        }
        assert_eq!(faulty.stats().gates_by_kind[&GateKind::Nand], 6);
        assert_eq!(faulty.inputs(), c.inputs(), "interface preserved");
    }

    #[test]
    fn exhaustive_vectors_reach_full_coverage_on_c17() {
        let c = bench::c17();
        // All 32 input combinations: every stuck-at fault in c17 is testable.
        let vectors: Vec<Vec<bool>> =
            (0u32..32).map(|p| (0..5).map(|i| p >> i & 1 == 1).collect()).collect();
        let stimulus = Stimulus::vectors(16, vectors);
        let faults = enumerate_faults(&c);
        let report = simulate_faults::<Bit>(&c, &faults, &stimulus, VirtualTime::new(32 * 16));
        assert_eq!(report.coverage(), 1.0, "undetected: {:?}", report.undetected());
    }

    #[test]
    fn single_vector_has_partial_coverage() {
        let c = bench::c17();
        let stimulus = Stimulus::vectors(16, vec![vec![false; 5]]);
        let faults = enumerate_faults(&c);
        let report = simulate_faults::<Bit>(&c, &faults, &stimulus, VirtualTime::new(64));
        assert!(report.coverage() > 0.0, "all-zero vector detects something");
        assert!(report.coverage() < 1.0, "one vector cannot catch everything");
        let shown = report.to_string();
        assert!(shown.contains("coverage"));
    }

    #[test]
    fn faulty_sequential_circuit_simulates() {
        let c = generate::counter(4, DelayModel::Unit);
        let q0 = c.find("q0").unwrap();
        let faults = [StuckAtFault { net: q0, value: false }];
        let stimulus = Stimulus::quiet(100_000).with_clock(5);
        let report = simulate_faults::<Bit>(&c, &faults, &stimulus, VirtualTime::new(200));
        // A stuck low q0 kills the count sequence: detectable.
        assert_eq!(report.detected_count(), 1);
    }
}
