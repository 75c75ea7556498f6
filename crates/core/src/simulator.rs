//! The kernel abstraction.

use parsim_event::VirtualTime;
use parsim_logic::LogicValue;
use parsim_netlist::Circuit;

use crate::{SimOutcome, Stimulus};

/// Which nets to record waveforms for.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Observe {
    /// Record the primary outputs (the default).
    #[default]
    Outputs,
    /// Record every net — expensive, but what the exhaustive differential
    /// tests use.
    AllNets,
    /// Record nothing; only final values and statistics are produced.
    Nothing,
}

impl Observe {
    /// The recorded nets as a gate-indexed mask: `mask[g]` is `true` if
    /// the net driven by gate `g` should be recorded. Built in
    /// `O(gates + outputs)`; kernels take it once per run and never ask
    /// the circuit's output list about a single net.
    pub fn mask(self, circuit: &Circuit) -> Vec<bool> {
        let mut mask = vec![self == Observe::AllNets; circuit.len()];
        if self == Observe::Outputs {
            for po in circuit.outputs() {
                mask[po.index()] = true;
            }
        }
        mask
    }
}

/// A simulation kernel: anything that can run a circuit against a stimulus
/// up to an end time.
///
/// Implementations in this workspace: the sequential reference (here),
/// the oblivious kernel (`parsim-bitsim`'s packed kernel at one lane), and
/// the synchronous / conservative / optimistic parallel kernels. All are interchangeable — logical results
/// are identical; only [`SimStats`](crate::SimStats) differ.
pub trait Simulator<V: LogicValue> {
    /// A short, stable kernel name for experiment tables.
    fn name(&self) -> String;

    /// Runs the circuit against the stimulus until `until` (inclusive of
    /// events stamped exactly `until`).
    fn run(&self, circuit: &Circuit, stimulus: &Stimulus, until: VirtualTime) -> SimOutcome<V>;
}
