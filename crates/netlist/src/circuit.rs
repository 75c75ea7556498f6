//! The immutable circuit arena.

use std::fmt;

use parsim_logic::GateKind;

use crate::{Delay, GateId};

/// One gate instance: its kind, fanin nets, propagation delay and optional
/// name.
///
/// Gates are stored in a [`Circuit`] arena and referenced by [`GateId`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Gate {
    pub(crate) kind: GateKind,
    pub(crate) fanin: Vec<GateId>,
    pub(crate) delay: Delay,
    pub(crate) name: Option<Box<str>>,
}

impl Gate {
    /// The gate's function.
    pub fn kind(&self) -> GateKind {
        self.kind
    }

    /// The nets feeding this gate, in pin order.
    pub fn fanin(&self) -> &[GateId] {
        &self.fanin
    }

    /// Propagation delay from any input change to the output.
    pub fn delay(&self) -> Delay {
        self.delay
    }

    /// The gate's name, if it has one (parsed circuits always name gates).
    pub fn name(&self) -> Option<&str> {
        self.name.as_deref()
    }
}

/// One sink of a net: the reading gate and the input pin it reads on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct FanoutEntry {
    /// The gate reading the net.
    pub gate: GateId,
    /// The fanin pin index on that gate.
    pub pin: usize,
}

/// An immutable gate-level circuit.
///
/// Built with [`CircuitBuilder`](crate::CircuitBuilder), parsed from ISCAS
/// `.bench` text ([`bench::parse`](crate::bench::parse)) or produced by a
/// generator ([`generate`](crate::generate)). Construction validates arity,
/// net references and combinational acyclicity, so every `Circuit` in
/// existence is structurally simulatable.
///
/// # Examples
///
/// ```
/// use parsim_netlist::bench;
///
/// let c = bench::c17();
/// assert_eq!(c.inputs().len(), 5);
/// assert_eq!(c.outputs().len(), 2);
/// assert_eq!(c.stats().gates_by_kind[&parsim_logic::GateKind::Nand], 6);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Circuit {
    pub(crate) name: String,
    pub(crate) gates: Vec<Gate>,
    /// Every net's sinks, in one flat list: net `i`'s are
    /// `fanout[fanout_start[i]..fanout_start[i + 1]]`, in gate order.
    pub(crate) fanout_start: Vec<usize>,
    pub(crate) fanout: Vec<FanoutEntry>,
    pub(crate) inputs: Vec<GateId>,
    pub(crate) outputs: Vec<GateId>,
}

impl Circuit {
    /// The circuit's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of gates (including primary inputs and constants).
    pub fn len(&self) -> usize {
        self.gates.len()
    }

    /// Returns `true` if the circuit has no gates.
    pub fn is_empty(&self) -> bool {
        self.gates.is_empty()
    }

    /// The gate with the given id.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range for this circuit.
    pub fn gate(&self, id: GateId) -> &Gate {
        &self.gates[id.index()]
    }

    /// Shorthand for `self.gate(id).kind()`.
    pub fn kind(&self, id: GateId) -> GateKind {
        self.gate(id).kind
    }

    /// Shorthand for `self.gate(id).fanin()`.
    pub fn fanin(&self, id: GateId) -> &[GateId] {
        &self.gate(id).fanin
    }

    /// Shorthand for `self.gate(id).delay()`.
    pub fn delay(&self, id: GateId) -> Delay {
        self.gate(id).delay
    }

    /// The sinks of the net driven by `id`.
    pub fn fanout(&self, id: GateId) -> &[FanoutEntry] {
        // One bounds check for both offsets: the kernels call this per event.
        let range = &self.fanout_start[id.index()..id.index() + 2];
        &self.fanout[range[0]..range[1]]
    }

    /// Primary inputs, in declaration order.
    pub fn inputs(&self) -> &[GateId] {
        &self.inputs
    }

    /// Primary outputs, in declaration order.
    pub fn outputs(&self) -> &[GateId] {
        &self.outputs
    }

    /// Iterates over all gate ids, in arena order.
    pub fn ids(&self) -> impl Iterator<Item = GateId> + '_ {
        (0..self.gates.len()).map(GateId::new)
    }

    /// Iterates over `(id, gate)` pairs, in arena order.
    pub fn iter(&self) -> impl Iterator<Item = (GateId, &Gate)> + '_ {
        self.gates.iter().enumerate().map(|(i, g)| (GateId::new(i), g))
    }

    /// Finds a gate by name (linear scan cached into a map on first call is
    /// deliberately avoided: this is a debugging/parsing aid, not a hot path).
    pub fn find(&self, name: &str) -> Option<GateId> {
        self.iter().find(|(_, g)| g.name() == Some(name)).map(|(id, _)| id)
    }

    /// The smallest propagation delay of any non-source gate.
    ///
    /// This bounds the circuit-wide *lookahead* available to conservative
    /// synchronization: an event entering a gate cannot affect its output
    /// sooner than this.
    pub fn min_gate_delay(&self) -> Delay {
        self.gates
            .iter()
            .filter(|g| !g.kind.is_source())
            .map(|g| g.delay)
            .min()
            .unwrap_or(Delay::UNIT)
    }

    /// The largest propagation delay of any gate.
    pub fn max_gate_delay(&self) -> Delay {
        self.gates.iter().map(|g| g.delay).max().unwrap_or(Delay::ZERO)
    }

    /// Ids of all sequential elements (flip-flops and latches).
    ///
    /// Public API: a netlist's register set, what a caller needs to find
    /// its state; the generator and builder suites count registers by it.
    pub fn sequential_elements(&self) -> Vec<GateId> {
        self.iter().filter(|(_, g)| g.kind.is_sequential()).map(|(id, _)| id).collect()
    }

    /// Structural statistics.
    pub fn stats(&self) -> crate::CircuitStats {
        crate::CircuitStats::of(self)
    }
}

impl fmt::Display for Circuit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} ({} gates, {} PI, {} PO)",
            self.name,
            self.gates.len(),
            self.inputs.len(),
            self.outputs.len()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::CircuitBuilder;

    fn tiny() -> Circuit {
        let mut b = CircuitBuilder::new("tiny");
        let a = b.input("a");
        let bb = b.input("b");
        let n = b.gate(GateKind::Nand, [a, bb], Delay::new(2));
        b.output("y", n);
        b.finish().unwrap()
    }

    #[test]
    fn accessors() {
        let c = tiny();
        assert_eq!(c.len(), 3);
        assert!(!c.is_empty());
        assert_eq!(c.name(), "tiny");
        let y = c.outputs()[0];
        assert_eq!(c.kind(y), GateKind::Nand);
        assert_eq!(c.fanin(y).len(), 2);
        assert_eq!(c.delay(y), Delay::new(2));
        assert_eq!(c.to_string(), "tiny (3 gates, 2 PI, 1 PO)");
    }

    #[test]
    fn fanout_records_pins() {
        let c = tiny();
        let a = c.inputs()[0];
        let y = c.outputs()[0];
        assert_eq!(c.fanout(a), &[FanoutEntry { gate: y, pin: 0 }]);
        let b = c.inputs()[1];
        assert_eq!(c.fanout(b), &[FanoutEntry { gate: y, pin: 1 }]);
        assert!(c.fanout(y).is_empty());
    }

    #[test]
    fn find_by_name() {
        let c = tiny();
        assert_eq!(c.find("a"), Some(c.inputs()[0]));
        assert_eq!(c.find("y"), Some(c.outputs()[0]));
        assert_eq!(c.find("zzz"), None);
    }

    #[test]
    fn delay_extremes() {
        let c = tiny();
        assert_eq!(c.min_gate_delay(), Delay::new(2));
        assert_eq!(c.max_gate_delay(), Delay::new(2));
    }
}
