//! Validating circuit construction.

use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::error::Error;
use std::fmt::{self, Display};

use parsim_logic::GateKind;

use crate::circuit::{Circuit, FanoutEntry, Gate};
use crate::{graph, Delay, GateId};

/// One structural problem in a circuit under construction.
///
/// [`CircuitBuilder::finish`] returns the first one found;
/// [`CircuitBuilder::finish_with_diagnostics`] collects every one in a
/// [`StructuralReport`]. Each carries the [`GateId`]s involved, so
/// downstream tooling (the `parsim-lint` crate, DOT highlighting) can point
/// at the exact sites, and the gates' names for messages.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NetlistError {
    /// The circuit contains no gates.
    Empty,
    /// A gate was declared (e.g. referenced by name in a `.bench` file or
    /// created with [`CircuitBuilder::declare`]) but never defined.
    UndefinedGate {
        /// The undefined gate.
        gate: GateId,
        /// Its name, or its id rendering if unnamed.
        name: String,
    },
    /// A gate has an illegal number of inputs for its kind.
    BadArity {
        /// The offending gate.
        gate: GateId,
        /// Its name, or its id rendering if unnamed.
        name: String,
        /// Its kind.
        kind: GateKind,
        /// The number of fanin nets it was given.
        got: usize,
    },
    /// A gate name was used more than once.
    DuplicateName {
        /// The reused name.
        name: String,
        /// Every gate carrying that name, in id order.
        gates: Vec<GateId>,
    },
    /// The combinational part of the circuit contains a cycle (a feedback
    /// loop not broken by a flip-flop or latch).
    CombinationalCycle {
        /// The gates on one such cycle, in order.
        gates: Vec<GateId>,
        /// Their names (or id renderings), parallel to `gates`.
        names: Vec<String>,
    },
}

impl Display for NetlistError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NetlistError::Empty => write!(f, "circuit contains no gates"),
            NetlistError::UndefinedGate { name, .. } => {
                write!(f, "gate {name:?} is referenced but never defined")
            }
            NetlistError::BadArity { name, kind, got, .. } => {
                write!(f, "gate {name:?} of kind {kind} has {got} inputs, expected ")?;
                match (kind.min_inputs(), kind.max_inputs()) {
                    (lo, Some(hi)) if lo == hi => write!(f, "exactly {lo}"),
                    (lo, Some(hi)) => write!(f, "{lo} to {hi}"),
                    (lo, None) => write!(f, "at least {lo}"),
                }
            }
            NetlistError::DuplicateName { name, gates } => {
                write!(f, "gate name {name:?} is defined {} times", gates.len())
            }
            NetlistError::CombinationalCycle { names, .. } => {
                f.write_str("combinational cycle through ")?;
                for (i, name) in names.iter().enumerate() {
                    write!(f, "{}{name:?}", if i == 0 { "" } else { " -> " })?;
                }
                Ok(())
            }
        }
    }
}

impl Error for NetlistError {}

/// Every structural problem in a circuit under construction, as returned by
/// [`CircuitBuilder::finish_with_diagnostics`].
///
/// Where [`CircuitBuilder::finish`] stops at the first problem, this report
/// collects all of them, so a user can fix a netlist in one round trip.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StructuralReport {
    issues: Vec<NetlistError>,
}

impl StructuralReport {
    /// The issues found, grouped by category (emptiness, undefined gates,
    /// arity, duplicate names, cycles) and by gate id within a category.
    pub fn issues(&self) -> &[NetlistError] {
        &self.issues
    }
}

impl Display for StructuralReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "{} structural issue(s):", self.issues.len())?;
        for issue in &self.issues {
            writeln!(f, "  - {issue}")?;
        }
        Ok(())
    }
}

impl Error for StructuralReport {}

#[derive(Debug, Clone)]
struct PendingGate {
    kind: Option<GateKind>,
    fanin: Vec<GateId>,
    delay: Delay,
    name: Option<Box<str>>,
}

/// Incremental, validating builder for [`Circuit`].
///
/// Supports forward references (needed both by `.bench` files, where a gate
/// may use nets defined later, and by sequential feedback paths): call
/// [`declare`](Self::declare) to obtain an id now and
/// [`define`](Self::define) it later. [`finish`](Self::finish) validates the
/// whole structure.
///
/// # Examples
///
/// A set–reset feedback loop must pass through a latch or flip-flop; a purely
/// combinational loop is rejected:
///
/// ```
/// use parsim_logic::GateKind;
/// use parsim_netlist::{CircuitBuilder, Delay, NetlistError};
///
/// let mut b = CircuitBuilder::new("bad_loop");
/// let a = b.declare("a");
/// let c = b.gate(GateKind::Not, [a], Delay::UNIT);
/// b.define(a, GateKind::Not, [c], Delay::UNIT);
/// b.output("y", c);
/// assert!(matches!(b.finish(), Err(NetlistError::CombinationalCycle { .. })));
/// ```
#[derive(Debug, Clone)]
pub struct CircuitBuilder {
    name: String,
    gates: Vec<PendingGate>,
    inputs: Vec<GateId>,
    outputs: Vec<GateId>,
    output_names: Vec<Box<str>>,
}

impl CircuitBuilder {
    /// Starts building a circuit with the given name.
    pub fn new(name: impl Into<String>) -> Self {
        CircuitBuilder {
            name: name.into(),
            gates: Vec::new(),
            inputs: Vec::new(),
            outputs: Vec::new(),
            output_names: Vec::new(),
        }
    }

    fn push(&mut self, g: PendingGate) -> GateId {
        let id = GateId::new(self.gates.len());
        self.gates.push(g);
        id
    }

    /// Adds a named primary input and returns its id.
    pub fn input(&mut self, name: impl Into<String>) -> GateId {
        let id = self.push(PendingGate {
            kind: Some(GateKind::Input),
            fanin: Vec::new(),
            delay: Delay::ZERO,
            name: Some(name.into().into_boxed_str()),
        });
        self.inputs.push(id);
        id
    }

    /// Adds a constant driver.
    pub fn constant(&mut self, value: bool) -> GateId {
        let kind = if value { GateKind::Const1 } else { GateKind::Const0 };
        self.push(PendingGate {
            kind: Some(kind),
            fanin: Vec::new(),
            delay: Delay::ZERO,
            name: None,
        })
    }

    /// Adds an anonymous gate and returns its id.
    pub fn gate(
        &mut self,
        kind: GateKind,
        fanin: impl IntoIterator<Item = GateId>,
        delay: Delay,
    ) -> GateId {
        self.push(PendingGate {
            kind: Some(kind),
            fanin: fanin.into_iter().collect(),
            delay,
            name: None,
        })
    }

    /// Adds a named gate and returns its id.
    pub fn named_gate(
        &mut self,
        name: impl Into<String>,
        kind: GateKind,
        fanin: impl IntoIterator<Item = GateId>,
        delay: Delay,
    ) -> GateId {
        let id = self.gate(kind, fanin, delay);
        self.gates[id.index()].name = Some(name.into().into_boxed_str());
        id
    }

    /// Forward-declares a named gate, to be [`define`](Self::define)d later.
    ///
    /// Needed for feedback paths and for file formats that reference nets
    /// before defining them.
    pub fn declare(&mut self, name: impl Into<String>) -> GateId {
        self.push(PendingGate {
            kind: None,
            fanin: Vec::new(),
            delay: Delay::ZERO,
            name: Some(name.into().into_boxed_str()),
        })
    }

    /// Fills in a gate previously created with [`declare`](Self::declare).
    ///
    /// If the gate is defined as a primary input, it is appended to the
    /// input list.
    ///
    /// # Panics
    ///
    /// Panics if `id` was already defined (that is a bug in the calling
    /// code, not a data error).
    pub fn define(
        &mut self,
        id: GateId,
        kind: GateKind,
        fanin: impl IntoIterator<Item = GateId>,
        delay: Delay,
    ) {
        let slot = &mut self.gates[id.index()];
        assert!(slot.kind.is_none(), "gate {id} defined twice");
        slot.kind = Some(kind);
        slot.fanin = fanin.into_iter().collect();
        slot.delay = delay;
        if kind == GateKind::Input {
            self.inputs.push(id);
        }
    }

    /// Marks a net as a primary output under the given name.
    ///
    /// If the driving gate is unnamed, the output name is attached to it, so
    /// the net can later be found with [`Circuit::find`](crate::Circuit::find).
    pub fn output(&mut self, name: impl Into<String>, id: GateId) {
        let name = name.into().into_boxed_str();
        if self.gates[id.index()].name.is_none() {
            self.gates[id.index()].name = Some(name.clone());
        }
        self.outputs.push(id);
        self.output_names.push(name);
    }

    /// The name the finished circuit will carry.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of gates added so far.
    pub fn len(&self) -> usize {
        self.gates.len()
    }

    /// Returns `true` if no gates have been added yet.
    pub fn is_empty(&self) -> bool {
        self.gates.is_empty()
    }

    fn display_name(&self, id: GateId) -> String {
        self.gates[id.index()].name.as_deref().map_or_else(|| id.to_string(), str::to_owned)
    }

    /// Validates the structure and produces the immutable [`Circuit`].
    ///
    /// # Errors
    ///
    /// Returns a [`NetlistError`] if the circuit is empty, a declared gate
    /// was never defined, a gate has an illegal fanin count, a name is
    /// duplicated, or the combinational part contains a cycle. Only the
    /// first problem is reported; use
    /// [`finish_with_diagnostics`](Self::finish_with_diagnostics) for an
    /// exhaustive report.
    pub fn finish(self) -> Result<Circuit, NetlistError> {
        // A report holds at least one issue; the first is the one to return.
        self.finish_with_diagnostics().map_err(|mut report| report.issues.swap_remove(0))
    }

    /// Validates the structure, reporting *every* structural problem.
    ///
    /// This is the diagnostics-grade variant of [`finish`](Self::finish):
    /// instead of bailing at the first problem it collects a
    /// [`StructuralReport`] with all undefined gates, arity violations,
    /// duplicate names and (if the gate kinds are all known) a full
    /// combinational cycle path with [`GateId`] sites.
    ///
    /// # Errors
    ///
    /// Returns the [`StructuralReport`] when the circuit has at least one
    /// structural issue.
    pub fn finish_with_diagnostics(self) -> Result<Circuit, StructuralReport> {
        let (fanout_start, fanout) = self.fanout_adjacency();
        let issues = self.check(&fanout_start, &fanout);
        if !issues.is_empty() {
            return Err(StructuralReport { issues });
        }

        let gates = self
            .gates
            .into_iter()
            .map(|g| Gate {
                kind: g.kind.expect("checked by self.check()"),
                fanin: g.fanin,
                delay: g.delay,
                name: g.name,
            })
            .collect();

        Ok(Circuit {
            name: self.name,
            gates,
            fanout_start,
            fanout,
            inputs: self.inputs,
            outputs: self.outputs,
        })
    }

    /// Fanout adjacency of the pending gates (who reads each net, on which
    /// pin) in [`Circuit`]'s flat layout: per-net offsets, then the sinks,
    /// each net's in gate order.
    fn fanout_adjacency(&self) -> (Vec<usize>, Vec<FanoutEntry>) {
        let n = self.gates.len();
        let mut start = vec![0usize; n + 1];
        for g in &self.gates {
            for &src in &g.fanin {
                start[src.index() + 1] += 1;
            }
        }
        for i in 0..n {
            start[i + 1] += start[i];
        }
        let mut next = start.clone();
        let mut fanout = vec![FanoutEntry { gate: GateId::new(0), pin: 0 }; start[n]];
        for (i, g) in self.gates.iter().enumerate() {
            for (pin, &src) in g.fanin.iter().enumerate() {
                fanout[next[src.index()]] = FanoutEntry { gate: GateId::new(i), pin };
                next[src.index()] += 1;
            }
        }
        (start, fanout)
    }

    /// Collects every structural issue, in category order (emptiness,
    /// undefined gates, arity, duplicate names, cycle).
    fn check(&self, fanout_start: &[usize], fanout: &[FanoutEntry]) -> Vec<NetlistError> {
        let mut issues = Vec::new();

        if self.gates.is_empty() {
            return vec![NetlistError::Empty];
        }

        // Every declared gate must be defined.
        for (i, g) in self.gates.iter().enumerate() {
            if g.kind.is_none() {
                let gate = GateId::new(i);
                issues.push(NetlistError::UndefinedGate { gate, name: self.display_name(gate) });
            }
        }

        // Arity (only checkable once a gate's kind is known).
        for (i, g) in self.gates.iter().enumerate() {
            let Some(kind) = g.kind else { continue };
            if !kind.accepts_inputs(g.fanin.len()) {
                let gate = GateId::new(i);
                issues.push(NetlistError::BadArity {
                    gate,
                    name: self.display_name(gate),
                    kind,
                    got: g.fanin.len(),
                });
            }
        }

        // Unique names: report each reused name once, with every holder. A
        // holder list is only built for a name that repeats.
        let mut first_holder: HashMap<&str, GateId> = HashMap::with_capacity(self.gates.len());
        let mut repeated: HashMap<&str, Vec<GateId>> = HashMap::new();
        for (i, g) in self.gates.iter().enumerate() {
            let Some(name) = &g.name else { continue };
            match first_holder.entry(name) {
                Entry::Vacant(e) => {
                    e.insert(GateId::new(i));
                }
                Entry::Occupied(e) => {
                    repeated.entry(name).or_insert_with(|| vec![*e.get()]).push(GateId::new(i));
                }
            }
        }
        let mut duplicates: Vec<(&str, Vec<GateId>)> = repeated.into_iter().collect();
        duplicates.sort_by_key(|(_, gates)| gates[0]);
        for (name, gates) in duplicates {
            issues.push(NetlistError::DuplicateName { name: name.to_owned(), gates });
        }

        // Combinational cycle check, skipped while any gate is undefined:
        // the peel needs every gate's kind.
        if self.gates.iter().all(|g| g.kind.is_some()) {
            let gate = |i: usize| (self.gates[i].kind.expect("defined"), self.gates[i].fanin.len());
            let (order, residual) = graph::peel(gate, fanout_start, fanout, |_, _| {});
            if order.len() < self.gates.len() {
                let gates = self.extract_cycle(&residual);
                let names = gates.iter().map(|&g| self.display_name(g)).collect();
                issues.push(NetlistError::CombinationalCycle { gates, names });
            }
        }

        issues
    }

    /// Walks backwards from the first gate the peel left (`residual > 0`)
    /// through fanins it also left, to recover one cycle for the error.
    fn extract_cycle(&self, residual: &[usize]) -> Vec<GateId> {
        let mut cur = residual.iter().position(|&d| d > 0).expect("a gate the peel left");
        let mut seen = vec![usize::MAX; self.gates.len()];
        let mut path = Vec::new();
        while seen[cur] == usize::MAX {
            seen[cur] = path.len();
            path.push(GateId::new(cur));
            cur = self.gates[cur]
                .fanin
                .iter()
                .map(|f| f.index())
                .find(|&f| residual[f] > 0)
                .expect("a gate the peel left has a fanin it left");
        }
        path.split_off(seen[cur])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builds_valid_circuit() {
        let mut b = CircuitBuilder::new("t");
        let a = b.input("a");
        let c = b.constant(true);
        let g = b.named_gate("g", GateKind::And, [a, c], Delay::UNIT);
        b.output("o", g);
        let circuit = b.finish().unwrap();
        assert_eq!(circuit.len(), 3);
        assert_eq!(circuit.kind(c), GateKind::Const1);
        assert_eq!(circuit.find("g"), Some(g));
    }

    #[test]
    fn rejects_empty() {
        assert_eq!(CircuitBuilder::new("e").finish().unwrap_err(), NetlistError::Empty);
    }

    #[test]
    fn rejects_undefined_declaration() {
        let mut b = CircuitBuilder::new("t");
        let a = b.input("a");
        let ghost = b.declare("ghost");
        b.gate(GateKind::And, [a, ghost], Delay::UNIT);
        match b.finish().unwrap_err() {
            NetlistError::UndefinedGate { gate, name } => {
                assert_eq!((gate, name.as_str()), (ghost, "ghost"));
            }
            e => panic!("unexpected error {e}"),
        }
    }

    #[test]
    fn rejects_bad_arity() {
        let mut b = CircuitBuilder::new("t");
        let a = b.input("a");
        b.named_gate("m", GateKind::Mux2, [a, a], Delay::UNIT);
        assert!(matches!(
            b.finish().unwrap_err(),
            NetlistError::BadArity { kind: GateKind::Mux2, got: 2, .. }
        ));
    }

    #[test]
    fn rejects_duplicate_names() {
        let mut b = CircuitBuilder::new("t");
        let a = b.input("x");
        b.named_gate("x", GateKind::Buf, [a], Delay::UNIT);
        assert!(matches!(b.finish().unwrap_err(), NetlistError::DuplicateName { .. }));
    }

    #[test]
    fn rejects_combinational_cycle_and_names_it() {
        let mut b = CircuitBuilder::new("t");
        let x = b.declare("x");
        let y = b.named_gate("y", GateKind::Not, [x], Delay::UNIT);
        b.define(x, GateKind::Not, [y], Delay::UNIT);
        match b.finish().unwrap_err() {
            NetlistError::CombinationalCycle { gates, names } => {
                assert_eq!(gates.len(), 2);
                assert!(gates.contains(&x) && gates.contains(&y));
                assert!(names.contains(&"x".to_string()) && names.contains(&"y".to_string()));
            }
            e => panic!("unexpected error {e}"),
        }
    }

    #[test]
    fn accepts_sequential_feedback() {
        // A classic DFF self-loop (toggle flip-flop): q feeds an inverter
        // that feeds back into the DFF's data pin.
        let mut b = CircuitBuilder::new("toggle");
        let clk = b.input("clk");
        let q = b.declare("q");
        let nq = b.named_gate("nq", GateKind::Not, [q], Delay::UNIT);
        b.define(q, GateKind::Dff, [clk, nq], Delay::UNIT);
        b.output("q", q);
        let c = b.finish().unwrap();
        assert_eq!(c.sequential_elements(), vec![q]);
    }

    #[test]
    fn forward_declared_input_is_registered() {
        let mut b = CircuitBuilder::new("t");
        let a = b.declare("a");
        b.define(a, GateKind::Input, [], Delay::ZERO);
        let g = b.gate(GateKind::Buf, [a], Delay::UNIT);
        b.output("o", g);
        let c = b.finish().unwrap();
        assert_eq!(c.inputs(), &[a]);
    }

    #[test]
    #[should_panic(expected = "defined twice")]
    fn double_define_panics() {
        let mut b = CircuitBuilder::new("t");
        let a = b.declare("a");
        b.define(a, GateKind::Input, [], Delay::ZERO);
        b.define(a, GateKind::Input, [], Delay::ZERO);
    }

    #[test]
    fn self_loop_is_a_cycle() {
        let mut b = CircuitBuilder::new("t");
        let x = b.declare("x");
        b.define(x, GateKind::Buf, [x], Delay::UNIT);
        assert!(matches!(b.finish().unwrap_err(), NetlistError::CombinationalCycle { .. }));
    }
}
