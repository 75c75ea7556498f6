//! Simulation results and protocol statistics.

use std::collections::BTreeMap;
use std::fmt::{self, Display};

use parsim_event::VirtualTime;
use parsim_logic::LogicValue;
use parsim_netlist::{Circuit, GateId};

use crate::Waveform;

/// Counters describing how a kernel executed.
///
/// Every kernel fills the counters that apply to it and leaves the rest at
/// zero; the experiment harness prints them side by side. The modeled-time
/// fields are produced by kernels running on the virtual multiprocessor
/// (`parsim-machine`) and are the basis of every speedup figure.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
#[non_exhaustive]
pub struct SimStats {
    /// Events removed from queues and applied to nets (committed events for
    /// Time Warp).
    pub events_processed: u64,
    /// Events inserted into queues (including ones later cancelled).
    pub events_scheduled: u64,
    /// Gate evaluations performed (the §III "evaluation frequency" measure;
    /// far larger than `events_processed` for the oblivious kernel).
    pub gate_evaluations: u64,
    /// Inter-processor messages carrying real events.
    pub messages_sent: u64,
    /// Null messages sent (conservative kernels only).
    pub null_messages: u64,
    /// Barrier synchronizations executed. For the modeled synchronous
    /// kernel this is one per timestep; for every threaded kernel on the
    /// runtime fabric it is the number of synchronization rounds (each
    /// round is one barrier pair).
    pub barriers: u64,
    /// Rollbacks executed (optimistic kernels only).
    pub rollbacks: u64,
    /// Events undone by rollbacks (optimistic kernels only).
    pub events_rolled_back: u64,
    /// Anti-messages sent (optimistic kernels only).
    pub anti_messages: u64,
    /// State saves taken: one per processed batch, on every optimistic
    /// kernel (rolled-back batches included).
    pub state_saves: u64,
    /// State captured by those saves, counted in saved value slots (a net
    /// value is one slot, a gate's sequential state three), not in bytes;
    /// compare copy against incremental saving with it.
    pub state_bytes_saved: u64,
    /// GVT computations performed (optimistic kernels only).
    pub gvt_rounds: u64,
    /// Modeled parallel makespan in cost units (virtual-machine kernels).
    pub modeled_makespan: u64,
    /// Modeled single-processor work in cost units; `modeled_work /
    /// modeled_makespan` is the modeled speedup.
    pub modeled_work: u64,
    /// True when the run stopped early because a
    /// [`RunBudget`](crate::RunBudget) bound was exhausted: final values
    /// and waveforms cover only the simulated prefix, not the requested
    /// horizon.
    pub truncated: bool,
}

impl SimStats {
    /// The modeled speedup (`modeled_work / modeled_makespan`), or `None`
    /// for kernels that did not run on the virtual machine.
    pub fn modeled_speedup(&self) -> Option<f64> {
        if self.modeled_makespan == 0 || self.modeled_work == 0 {
            None
        } else {
            Some(self.modeled_work as f64 / self.modeled_makespan as f64)
        }
    }

    /// Folds another shard's counters into this one — how the threaded
    /// kernels combine per-worker statistics.
    ///
    /// Additive counters saturate instead of wrapping. Run-wide quantities
    /// are *not* additive and take the maximum instead: every worker passes
    /// the same `barriers` and `gvt_rounds`, and `modeled_makespan` is by
    /// definition the largest processor clock.
    pub fn merge(&mut self, other: &SimStats) {
        self.events_processed = self.events_processed.saturating_add(other.events_processed);
        self.events_scheduled = self.events_scheduled.saturating_add(other.events_scheduled);
        self.gate_evaluations = self.gate_evaluations.saturating_add(other.gate_evaluations);
        self.messages_sent = self.messages_sent.saturating_add(other.messages_sent);
        self.null_messages = self.null_messages.saturating_add(other.null_messages);
        self.rollbacks = self.rollbacks.saturating_add(other.rollbacks);
        self.events_rolled_back = self.events_rolled_back.saturating_add(other.events_rolled_back);
        self.anti_messages = self.anti_messages.saturating_add(other.anti_messages);
        self.state_saves = self.state_saves.saturating_add(other.state_saves);
        self.state_bytes_saved = self.state_bytes_saved.saturating_add(other.state_bytes_saved);
        self.modeled_work = self.modeled_work.saturating_add(other.modeled_work);
        self.barriers = self.barriers.max(other.barriers);
        self.gvt_rounds = self.gvt_rounds.max(other.gvt_rounds);
        self.modeled_makespan = self.modeled_makespan.max(other.modeled_makespan);
        self.truncated |= other.truncated;
    }

    /// Fraction of processed events that survived (were not rolled back);
    /// 1.0 for non-optimistic kernels.
    pub fn efficiency(&self) -> f64 {
        let executed = self.events_processed + self.events_rolled_back;
        if executed == 0 {
            1.0
        } else {
            self.events_processed as f64 / executed as f64
        }
    }
}

impl Display for SimStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} events, {} evals", self.events_processed, self.gate_evaluations)?;
        if self.null_messages > 0 {
            write!(f, ", {} nulls", self.null_messages)?;
        }
        if self.barriers > 0 {
            write!(f, ", {} barriers", self.barriers)?;
        }
        if self.rollbacks > 0 {
            write!(
                f,
                ", {} rollbacks ({} undone, eff {:.2})",
                self.rollbacks,
                self.events_rolled_back,
                self.efficiency()
            )?;
        }
        if let Some(s) = self.modeled_speedup() {
            write!(f, ", modeled speedup {s:.2}")?;
        }
        if self.truncated {
            write!(f, ", TRUNCATED")?;
        }
        Ok(())
    }
}

/// The complete result of one simulation run.
///
/// Contains the final value of every net, the waveforms of the observed
/// nets, and execution statistics. Logical results (`final_values`,
/// `waveforms`, `end_time`) must be identical across kernels for the same
/// circuit and stimulus; `stats` of course differ — that is the point.
#[derive(Debug, Clone, PartialEq)]
pub struct SimOutcome<V> {
    /// Final value of every net, indexed by gate id.
    pub final_values: Vec<V>,
    /// Waveforms of the observed nets.
    pub waveforms: BTreeMap<GateId, Waveform<V>>,
    /// The virtual time the results are valid through. Equal to the
    /// requested horizon for a complete run; for a budget-truncated run
    /// ([`SimStats::truncated`]) it is the last globally *committed* tick,
    /// and every waveform transition is at or before it — partial results
    /// never claim unsimulated time.
    pub end_time: VirtualTime,
    /// Execution statistics.
    pub stats: SimStats,
}

impl<V: LogicValue> SimOutcome<V> {
    /// The final value of a net.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn value(&self, id: GateId) -> V {
        self.final_values[id.index()]
    }

    /// The final value of a named net, if it exists.
    pub fn value_by_name(&self, circuit: &Circuit, name: &str) -> Option<V> {
        circuit.find(name).map(|id| self.value(id))
    }

    /// The final primary-output values, in declaration order.
    ///
    /// Public API: what a caller compares with a truth table, as
    /// [`SequentialSimulator`](crate::SequentialSimulator)'s example does.
    pub fn output_values(&self, circuit: &Circuit) -> Vec<V> {
        circuit.outputs().iter().map(|&po| self.value(po)).collect()
    }

    /// Returns the first divergence between the *logical* results of two
    /// runs, or `None` if they agree exactly.
    ///
    /// Used by every differential test: kernels are interchangeable iff this
    /// returns `None` for all circuits and stimuli.
    pub fn divergence_from(&self, other: &SimOutcome<V>) -> Option<String> {
        if self.end_time != other.end_time {
            return Some(format!("end times differ: {} vs {}", self.end_time, other.end_time));
        }
        if self.final_values.len() != other.final_values.len() {
            return Some("net counts differ".to_owned());
        }
        for (i, (a, b)) in self.final_values.iter().zip(&other.final_values).enumerate() {
            if a != b {
                return Some(format!("final value of g{i}: {a} vs {b}"));
            }
        }
        for (id, wa) in &self.waveforms {
            match other.waveforms.get(id) {
                None => return Some(format!("waveform for {id} missing in other run")),
                Some(wb) if wa != wb => {
                    return Some(format!(
                        "waveform of {id} differs:\n  a: {}\n  b: {}",
                        wa.to_trace_string(),
                        wb.to_trace_string()
                    ));
                }
                _ => {}
            }
        }
        if self.waveforms.len() != other.waveforms.len() {
            return Some("observed net sets differ".to_owned());
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use parsim_logic::Bit;

    fn outcome(vals: Vec<Bit>) -> SimOutcome<Bit> {
        SimOutcome {
            final_values: vals,
            waveforms: BTreeMap::new(),
            end_time: VirtualTime::new(10),
            stats: SimStats::default(),
        }
    }

    #[test]
    fn divergence_detects_value_mismatch() {
        let a = outcome(vec![Bit::Zero, Bit::One]);
        let b = outcome(vec![Bit::Zero, Bit::Zero]);
        assert!(a.divergence_from(&b).unwrap().contains("g1"));
        assert_eq!(a.divergence_from(&a.clone()), None);
    }

    #[test]
    fn divergence_detects_waveform_mismatch() {
        let mut a = outcome(vec![Bit::Zero]);
        let mut b = outcome(vec![Bit::Zero]);
        let mut w = Waveform::new(Bit::Zero);
        w.record(VirtualTime::new(3), Bit::One);
        a.waveforms.insert(GateId::new(0), w);
        b.waveforms.insert(GateId::new(0), Waveform::new(Bit::Zero));
        assert!(a.divergence_from(&b).unwrap().contains("waveform"));
    }

    #[test]
    fn merge_adds_counters_and_maxes_run_wide_fields() {
        let mut a = SimStats {
            events_processed: 10,
            gate_evaluations: u64::MAX - 5,
            barriers: 7,
            gvt_rounds: 3,
            modeled_makespan: 100,
            modeled_work: 40,
            ..Default::default()
        };
        let b = SimStats {
            events_processed: 5,
            gate_evaluations: 100, // would overflow: must saturate
            barriers: 7,           // same barriers seen by every worker
            gvt_rounds: 9,
            modeled_makespan: 80,
            modeled_work: 60,
            ..Default::default()
        };
        a.merge(&b);
        assert_eq!(a.events_processed, 15);
        assert_eq!(a.gate_evaluations, u64::MAX);
        assert_eq!(a.barriers, 7);
        assert_eq!(a.gvt_rounds, 9);
        assert_eq!(a.modeled_makespan, 100);
        assert_eq!(a.modeled_work, 100);
    }

    #[test]
    fn efficiency_and_speedup() {
        let mut s = SimStats { events_processed: 80, events_rolled_back: 20, ..Default::default() };
        assert_eq!(s.efficiency(), 0.8);
        assert_eq!(s.modeled_speedup(), None);
        s.modeled_work = 1000;
        s.modeled_makespan = 250;
        assert_eq!(s.modeled_speedup(), Some(4.0));
        let shown = s.to_string();
        assert!(shown.contains("speedup 4.00"));
    }
}
