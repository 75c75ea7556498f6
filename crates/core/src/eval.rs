//! The shared gate-evaluation semantics every kernel routes through.

use parsim_logic::{eval_combinational, eval_dff, eval_latch, GateKind, LogicValue};
use parsim_netlist::{Circuit, GateId};

/// Per-gate runtime state: sequential storage plus the output-change filter.
///
/// * `q` — the stored value of a flip-flop or latch (unused for
///   combinational gates),
/// * `prev_clk` — the clock/enable level seen at the previous evaluation
///   (edge detection),
/// * `last_driven` — the value most recently scheduled onto the gate's
///   output net; an evaluation only produces an event when the new output
///   differs (the standard event-driven suppression rule).
///
/// Time Warp snapshots this struct as part of LP state saving; it is
/// deliberately small and `Copy`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GateRuntime<V> {
    /// Stored sequential value.
    pub q: V,
    /// Clock/enable level at the previous evaluation.
    pub prev_clk: V,
    /// Last value scheduled on the output net.
    pub last_driven: V,
}

impl<V: LogicValue> Default for GateRuntime<V> {
    fn default() -> Self {
        GateRuntime { q: V::ZERO, prev_clk: V::ZERO, last_driven: V::ZERO }
    }
}

/// Evaluates one gate under the workspace-wide semantics and returns the new
/// output value if (and only if) it differs from the last driven value.
///
/// The contract shared by every kernel:
///
/// 1. all input-net updates carrying the gate's evaluation timestamp have
///    already been applied (visible through `read`),
/// 2. the gate is evaluated **at most once per timestamp**,
/// 3. `Some(v)` means "schedule an event driving the output net to `v` at
///    `now + delay(gate)`"; `None` means no event.
///
/// Sequential elements update their stored state as a side effect, which is
/// why rollback-capable kernels snapshot [`GateRuntime`] before calling this.
///
/// Primary inputs and constants return `None`: their values are driven by
/// the stimulus and the initialization phase, never by evaluation.
///
/// # Examples
///
/// ```
/// use parsim_core::{evaluate_gate, GateRuntime};
/// use parsim_logic::{GateKind, Logic4};
/// use parsim_netlist::{CircuitBuilder, Delay};
///
/// let mut b = CircuitBuilder::new("t");
/// let a = b.input("a");
/// let n = b.gate(GateKind::Not, [a], Delay::UNIT);
/// b.output("y", n);
/// let c = b.finish().unwrap();
///
/// let mut rt = GateRuntime::default();
/// // With a = 0 the inverter should drive 1 (differs from the initial 0).
/// let out = evaluate_gate(&c, n, &mut |_| Logic4::Zero, &mut rt);
/// assert_eq!(out, Some(Logic4::One));
/// // Evaluating again with unchanged inputs produces no event.
/// assert_eq!(evaluate_gate(&c, n, &mut |_| Logic4::Zero, &mut rt), None);
/// ```
pub fn evaluate_gate<V: LogicValue>(
    circuit: &Circuit,
    id: GateId,
    read: &mut impl FnMut(GateId) -> V,
    rt: &mut GateRuntime<V>,
) -> Option<V> {
    let gate = circuit.gate(id);
    let fanin = gate.fanin();
    let new = match gate.kind() {
        k if k.is_source() => return None,
        GateKind::Dff => {
            let clk = read(fanin[0]);
            let d = read(fanin[1]);
            let up = eval_dff(rt.prev_clk, clk, d, rt.q);
            rt.prev_clk = clk;
            rt.q = up.q;
            up.q
        }
        GateKind::Latch => {
            let en = read(fanin[0]);
            let d = read(fanin[1]);
            let up = eval_latch(en, d, rt.q);
            rt.prev_clk = en;
            rt.q = up.q;
            up.q
        }
        k => {
            let mut inputs = [V::ZERO; 8];
            if fanin.len() <= inputs.len() {
                for (slot, &f) in inputs.iter_mut().zip(fanin) {
                    *slot = read(f);
                }
                eval_combinational(k, &inputs[..fanin.len()])
            } else {
                let inputs: Vec<V> = fanin.iter().map(|&f| read(f)).collect();
                eval_combinational(k, &inputs)
            }
        }
    };
    if new != rt.last_driven {
        rt.last_driven = new;
        Some(new)
    } else {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use parsim_netlist::{CircuitBuilder, Delay};

    fn dff_circuit() -> (Circuit, GateId, GateId, GateId) {
        let mut b = CircuitBuilder::new("t");
        let clk = b.input("clk");
        let d = b.input("d");
        let q = b.gate(GateKind::Dff, [clk, d], Delay::UNIT);
        b.output("q", q);
        (b.finish().unwrap(), clk, d, q)
    }

    #[test]
    fn dff_edge_detection_via_runtime() {
        use parsim_logic::Logic4;
        let (c, clk, d, q) = dff_circuit();
        let mut rt = GateRuntime::default();
        let mut vals = std::collections::HashMap::from([(clk, Logic4::Zero), (d, Logic4::One)]);

        // Clock low: no capture, q stays 0 → no event.
        let mut read = |id: GateId| vals[&id];
        assert_eq!(evaluate_gate(&c, q, &mut read, &mut rt), None);

        // Rising edge captures d = 1.
        vals.insert(clk, Logic4::One);
        let mut read = |id: GateId| vals[&id];
        assert_eq!(evaluate_gate(&c, q, &mut read, &mut rt), Some(Logic4::One));
        assert_eq!(rt.q, Logic4::One);

        // High level with d changing: no capture.
        vals.insert(d, Logic4::Zero);
        let mut read = |id: GateId| vals[&id];
        assert_eq!(evaluate_gate(&c, q, &mut read, &mut rt), None);

        // Falling edge: hold.
        vals.insert(clk, Logic4::Zero);
        let mut read = |id: GateId| vals[&id];
        assert_eq!(evaluate_gate(&c, q, &mut read, &mut rt), None);

        // Next rising edge captures the new d = 0.
        vals.insert(clk, Logic4::One);
        let mut read = |id: GateId| vals[&id];
        assert_eq!(evaluate_gate(&c, q, &mut read, &mut rt), Some(Logic4::Zero));
    }

    #[test]
    fn sources_never_produce_events() {
        use parsim_logic::Bit;
        let mut b = CircuitBuilder::new("t");
        let a = b.input("a");
        let k = b.constant(true);
        let g = b.gate(GateKind::And, [a, k], Delay::UNIT);
        b.output("o", g);
        let c = b.finish().unwrap();
        let mut rt = GateRuntime::<Bit>::default();
        assert_eq!(evaluate_gate(&c, a, &mut |_| Bit::One, &mut rt), None);
        assert_eq!(evaluate_gate(&c, k, &mut |_| Bit::One, &mut rt), None);
    }

    #[test]
    fn wide_gate_falls_back_to_heap_path() {
        use parsim_logic::Bit;
        let mut b = CircuitBuilder::new("t");
        let ins: Vec<GateId> = (0..12).map(|i| b.input(format!("i{i}"))).collect();
        let g = b.gate(GateKind::And, ins.clone(), Delay::UNIT);
        b.output("o", g);
        let c = b.finish().unwrap();
        let mut rt = GateRuntime::<Bit>::default();
        assert_eq!(evaluate_gate(&c, g, &mut |_| Bit::One, &mut rt), Some(Bit::One));
    }
}
