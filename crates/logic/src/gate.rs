//! Gate models and their evaluation functions.

use std::error::Error;
use std::fmt::{self, Display};
use std::str::FromStr;

use crate::value::LogicValue;

/// The component models supported by the simulators.
///
/// These cover the gate level of abstraction described in the paper's §II
/// ("e.g., NANDs, flip-flops"): a primary-input source, constant drivers, the
/// standard combinational gates, a 2-to-1 multiplexer, a tri-state buffer,
/// and two sequential elements (edge-triggered D flip-flop and transparent
/// latch).
///
/// # Examples
///
/// ```
/// use parsim_logic::GateKind;
///
/// let kind: GateKind = "NAND".parse()?;
/// assert_eq!(kind, GateKind::Nand);
/// assert!(!kind.is_sequential());
/// assert_eq!(GateKind::Dff.to_string(), "DFF");
/// # Ok::<(), parsim_logic::ParseGateKindError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum GateKind {
    /// Primary input; driven by the stimulus, never evaluated.
    Input,
    /// Constant logic low.
    Const0,
    /// Constant logic high.
    Const1,
    /// Non-inverting buffer (1 input).
    Buf,
    /// Inverter (1 input).
    Not,
    /// N-ary AND (≥ 1 input).
    And,
    /// N-ary NAND (≥ 1 input).
    Nand,
    /// N-ary OR (≥ 1 input).
    Or,
    /// N-ary NOR (≥ 1 input).
    Nor,
    /// N-ary XOR (≥ 1 input).
    Xor,
    /// N-ary XNOR (≥ 1 input).
    Xnor,
    /// 2-to-1 multiplexer; inputs are `[sel, a, b]`, output `a` when `sel`
    /// is `0` and `b` when `sel` is `1`.
    Mux2,
    /// Tri-state buffer; inputs are `[enable, data]`, output is `data` when
    /// enabled and high-impedance otherwise.
    Tribuf,
    /// N-ary bus resolver (≥ 1 input): combines multiple drivers with the
    /// value system's resolution function ([`LogicValue::resolve`]). The
    /// idiomatic way to model a shared bus: each driver goes through a
    /// [`GateKind::Tribuf`] into one `Bus` gate.
    Bus,
    /// Rising-edge D flip-flop; inputs are `[clock, d]`.
    Dff,
    /// Transparent latch; inputs are `[enable, d]`.
    Latch,
}

impl GateKind {
    /// All gate kinds, in a fixed order (useful for table-driven tests).
    ///
    /// Public API: the table-driven tests of the netlist and compile
    /// crates iterate it, as can any downstream caller's.
    pub fn all() -> &'static [GateKind] {
        use GateKind::*;
        &[
            Input, Const0, Const1, Buf, Not, And, Nand, Or, Nor, Xor, Xnor, Mux2, Tribuf, Bus, Dff,
            Latch,
        ]
    }

    /// Returns `true` for stateful elements (flip-flops and latches), whose
    /// output depends on stored state in addition to the present inputs.
    pub fn is_sequential(self) -> bool {
        matches!(self, GateKind::Dff | GateKind::Latch)
    }

    /// Returns `true` for elements with no fanin (primary inputs and
    /// constants).
    pub fn is_source(self) -> bool {
        matches!(self, GateKind::Input | GateKind::Const0 | GateKind::Const1)
    }

    /// The smallest legal number of inputs.
    pub fn min_inputs(self) -> usize {
        use GateKind::*;
        match self {
            Input | Const0 | Const1 => 0,
            Buf | Not => 1,
            And | Nand | Or | Nor | Xor | Xnor | Bus => 1,
            Tribuf | Dff | Latch => 2,
            Mux2 => 3,
        }
    }

    /// The largest legal number of inputs, or `None` for variadic gates.
    pub fn max_inputs(self) -> Option<usize> {
        use GateKind::*;
        match self {
            Input | Const0 | Const1 => Some(0),
            Buf | Not => Some(1),
            And | Nand | Or | Nor | Xor | Xnor | Bus => None,
            Tribuf | Dff | Latch => Some(2),
            Mux2 => Some(3),
        }
    }

    /// The stable upper-case name (`"NAND"`, `"DFF"`, ...): what
    /// [`Display`] prints and what parsing accepts.
    pub fn mnemonic(self) -> &'static str {
        match self {
            GateKind::Input => "INPUT",
            GateKind::Const0 => "CONST0",
            GateKind::Const1 => "CONST1",
            GateKind::Buf => "BUFF",
            GateKind::Not => "NOT",
            GateKind::And => "AND",
            GateKind::Nand => "NAND",
            GateKind::Or => "OR",
            GateKind::Nor => "NOR",
            GateKind::Xor => "XOR",
            GateKind::Xnor => "XNOR",
            GateKind::Mux2 => "MUX",
            GateKind::Tribuf => "TRIBUF",
            GateKind::Bus => "BUS",
            GateKind::Dff => "DFF",
            GateKind::Latch => "LATCH",
        }
    }

    /// Checks whether `n` is a legal fanin count for this gate kind.
    pub fn accepts_inputs(self, n: usize) -> bool {
        n >= self.min_inputs() && self.max_inputs().is_none_or(|max| n <= max)
    }
}

impl Display for GateKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.mnemonic())
    }
}

/// Error returned when parsing a [`GateKind`] from a name fails.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseGateKindError {
    name: String,
}

impl ParseGateKindError {
    /// The name that failed to parse.
    pub fn name(&self) -> &str {
        &self.name
    }
}

impl Display for ParseGateKindError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "unknown gate kind {:?}", self.name)
    }
}

impl Error for ParseGateKindError {}

impl FromStr for GateKind {
    type Err = ParseGateKindError;

    /// Parses the canonical (ISCAS `.bench`-compatible) gate names,
    /// case-insensitively and without allocating. `BUF`/`BUFF`, `NOT`/`INV`
    /// and `MUX`/`MUX2` each name one kind.
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        const NAMES: &[(&str, GateKind)] = &[
            ("INPUT", GateKind::Input),
            ("CONST0", GateKind::Const0),
            ("CONST1", GateKind::Const1),
            ("BUF", GateKind::Buf),
            ("BUFF", GateKind::Buf),
            ("NOT", GateKind::Not),
            ("INV", GateKind::Not),
            ("AND", GateKind::And),
            ("NAND", GateKind::Nand),
            ("OR", GateKind::Or),
            ("NOR", GateKind::Nor),
            ("XOR", GateKind::Xor),
            ("XNOR", GateKind::Xnor),
            ("MUX", GateKind::Mux2),
            ("MUX2", GateKind::Mux2),
            ("TRIBUF", GateKind::Tribuf),
            ("BUS", GateKind::Bus),
            ("DFF", GateKind::Dff),
            ("LATCH", GateKind::Latch),
        ];
        NAMES
            .iter()
            .find(|(name, _)| name.eq_ignore_ascii_case(s))
            .map(|&(_, kind)| kind)
            .ok_or_else(|| ParseGateKindError { name: s.to_owned() })
    }
}

/// Evaluates a combinational gate over the given inputs.
///
/// Unknown propagation is pessimistic (Kleene): controlling values dominate,
/// anything else involving an unknown yields the unknown state of the value
/// system. A high-impedance *input* is treated as unknown.
///
/// # Panics
///
/// Panics if `kind` is a primary input or a sequential element (use
/// [`eval_dff`] / [`eval_latch`] for those), or if `inputs.len()` is not a
/// legal fanin count for `kind`.
///
/// # Examples
///
/// ```
/// use parsim_logic::{eval_combinational, Bit, GateKind};
///
/// let sum = eval_combinational(GateKind::Xor, &[Bit::One, Bit::One, Bit::Zero]);
/// assert_eq!(sum, Bit::Zero);
/// ```
pub fn eval_combinational<V: LogicValue>(kind: GateKind, inputs: &[V]) -> V {
    assert!(kind.accepts_inputs(inputs.len()), "{kind} gate cannot take {} inputs", inputs.len());
    let reduce = |init: V, f: fn(V, V) -> V| inputs.iter().copied().fold(init, f);
    match kind {
        GateKind::Input => panic!("primary inputs are driven by the stimulus, not evaluated"),
        GateKind::Dff | GateKind::Latch => {
            panic!("sequential element {kind} requires eval_dff/eval_latch")
        }
        GateKind::Const0 => V::ZERO,
        GateKind::Const1 => V::ONE,
        GateKind::Buf => inputs[0],
        GateKind::Not => inputs[0].not(),
        GateKind::And => reduce(V::ONE, V::and),
        GateKind::Nand => reduce(V::ONE, V::and).not(),
        GateKind::Or => reduce(V::ZERO, V::or),
        GateKind::Nor => reduce(V::ZERO, V::or).not(),
        GateKind::Xor => inputs.iter().copied().reduce(V::xor).unwrap_or(V::ZERO),
        GateKind::Xnor => inputs.iter().copied().reduce(V::xor).unwrap_or(V::ZERO).not(),
        GateKind::Mux2 => {
            let (sel, a, b) = (inputs[0], inputs[1], inputs[2]);
            match sel.to_bool() {
                Some(false) => a,
                Some(true) => b,
                None => {
                    if a == b {
                        a
                    } else {
                        V::UNKNOWN
                    }
                }
            }
        }
        GateKind::Tribuf => {
            let (enable, data) = (inputs[0], inputs[1]);
            match enable.to_bool() {
                Some(true) => data,
                Some(false) => V::HIGH_Z,
                None => V::UNKNOWN,
            }
        }
        GateKind::Bus => inputs.iter().copied().fold(V::HIGH_Z, V::resolve),
    }
}

/// The outcome of evaluating a sequential element: its next stored state.
///
/// Sequential evaluation is split out because flip-flops and latches need the
/// previous clock/enable level and the stored output in addition to the
/// present inputs; the simulation kernels own that state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SequentialUpdate<V> {
    /// The new stored output value.
    pub q: V,
    /// Whether the stored value changed (i.e. an output event must be
    /// scheduled).
    pub changed: bool,
}

/// Evaluates a rising-edge D flip-flop.
///
/// A `0 → 1` transition on the clock captures `d`; at any other definite
/// clock condition the stored value `q` is retained. If the edge cannot be
/// ruled in or out (unknown clock levels), the result is pessimistically
/// unknown unless `d` already equals `q`.
///
/// # Examples
///
/// ```
/// use parsim_logic::{eval_dff, Logic4};
///
/// let up = eval_dff(Logic4::Zero, Logic4::One, Logic4::One, Logic4::Zero);
/// assert_eq!(up.q, Logic4::One);
/// assert!(up.changed);
/// ```
pub fn eval_dff<V: LogicValue>(prev_clk: V, clk: V, d: V, q: V) -> SequentialUpdate<V> {
    let new_q = match (prev_clk.to_bool(), clk.to_bool()) {
        (Some(false), Some(true)) => d,
        (Some(_), Some(_)) => q,
        _ => {
            if d == q {
                q
            } else {
                V::UNKNOWN
            }
        }
    };
    SequentialUpdate { q: new_q, changed: new_q != q }
}

/// Evaluates a transparent latch.
///
/// While `enable` is high the latch is transparent (`q` follows `d`); while
/// low it holds. An unknown enable is pessimistically unknown unless `d`
/// already equals `q`.
///
/// # Examples
///
/// ```
/// use parsim_logic::{eval_latch, Bit};
///
/// assert_eq!(eval_latch(Bit::One, Bit::One, Bit::Zero).q, Bit::One);
/// assert_eq!(eval_latch(Bit::Zero, Bit::One, Bit::Zero).q, Bit::Zero);
/// ```
pub fn eval_latch<V: LogicValue>(enable: V, d: V, q: V) -> SequentialUpdate<V> {
    let new_q = match enable.to_bool() {
        Some(true) => d,
        Some(false) => q,
        None => {
            if d == q {
                q
            } else {
                V::UNKNOWN
            }
        }
    };
    SequentialUpdate { q: new_q, changed: new_q != q }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Bit, Logic4, Std9};

    #[test]
    fn parse_round_trip() {
        for &kind in GateKind::all() {
            let parsed: GateKind = kind.to_string().parse().unwrap();
            assert_eq!(parsed, kind);
        }
        assert_eq!("nand".parse::<GateKind>().unwrap(), GateKind::Nand);
        assert_eq!("BUF".parse::<GateKind>().unwrap(), GateKind::Buf);
        let err = "FROB".parse::<GateKind>().unwrap_err();
        assert_eq!(err.name(), "FROB");
    }

    #[test]
    fn arity_checks() {
        assert!(GateKind::And.accepts_inputs(1));
        assert!(GateKind::And.accepts_inputs(9));
        assert!(!GateKind::Not.accepts_inputs(2));
        assert!(!GateKind::Mux2.accepts_inputs(2));
        assert!(GateKind::Input.accepts_inputs(0));
        assert!(!GateKind::Input.accepts_inputs(1));
    }

    #[test]
    fn two_input_gates_match_truth_tables() {
        use Bit::{One as I, Zero as O};
        let cases: &[(GateKind, [[Bit; 2]; 2])] = &[
            (GateKind::And, [[O, O], [O, I]]),
            (GateKind::Nand, [[I, I], [I, O]]),
            (GateKind::Or, [[O, I], [I, I]]),
            (GateKind::Nor, [[I, O], [O, O]]),
            (GateKind::Xor, [[O, I], [I, O]]),
            (GateKind::Xnor, [[I, O], [O, I]]),
        ];
        for &(kind, table) in cases {
            for (i, &a) in [O, I].iter().enumerate() {
                for (j, &b) in [O, I].iter().enumerate() {
                    assert_eq!(eval_combinational(kind, &[a, b]), table[i][j], "{kind}({a},{b})");
                }
            }
        }
    }

    #[test]
    fn wide_gates_reduce() {
        let ones = [Bit::One; 7];
        assert_eq!(eval_combinational(GateKind::And, &ones), Bit::One);
        let mut mixed = ones;
        mixed[3] = Bit::Zero;
        assert_eq!(eval_combinational(GateKind::And, &mixed), Bit::Zero);
        assert_eq!(eval_combinational(GateKind::Xor, &mixed), Bit::Zero); // six ones
        assert_eq!(eval_combinational(GateKind::Xor, &ones), Bit::One); // seven ones
    }

    #[test]
    fn single_input_reductions_are_identity_like() {
        for &v in Logic4::all() {
            assert_eq!(eval_combinational(GateKind::And, &[v]), v.and(Logic4::One));
            assert_eq!(eval_combinational(GateKind::Or, &[v]), v.or(Logic4::Zero));
            assert_eq!(eval_combinational(GateKind::Buf, &[v]), v);
        }
    }

    #[test]
    fn constants_ignore_value_system() {
        assert_eq!(eval_combinational::<Std9>(GateKind::Const0, &[]), Std9::Zero);
        assert_eq!(eval_combinational::<Logic4>(GateKind::Const1, &[]), Logic4::One);
    }

    #[test]
    fn mux_selects_and_handles_unknown_select() {
        use Logic4::*;
        assert_eq!(eval_combinational(GateKind::Mux2, &[Zero, One, Zero]), One);
        assert_eq!(eval_combinational(GateKind::Mux2, &[One, One, Zero]), Zero);
        assert_eq!(eval_combinational(GateKind::Mux2, &[X, One, Zero]), X);
        // Unknown select is harmless when both data inputs agree.
        assert_eq!(eval_combinational(GateKind::Mux2, &[X, One, One]), One);
    }

    #[test]
    fn bus_resolves_drivers() {
        use Logic4::*;
        // An undriven bus floats.
        assert_eq!(eval_combinational(GateKind::Bus, &[Z, Z, Z]), Z);
        // One driver wins.
        assert_eq!(eval_combinational(GateKind::Bus, &[Z, One, Z]), One);
        // Conflicting strong drivers produce X.
        assert_eq!(eval_combinational(GateKind::Bus, &[Zero, One]), X);
        // IEEE 1164 strength resolution: pull-up loses to forcing low.
        use crate::Std9;
        assert_eq!(eval_combinational(GateKind::Bus, &[Std9::H, Std9::Zero]), Std9::Zero);
        assert_eq!(eval_combinational(GateKind::Bus, &[Std9::H, Std9::Z]), Std9::H);
    }

    #[test]
    fn tribuf_drives_or_floats() {
        use Logic4::*;
        assert_eq!(eval_combinational(GateKind::Tribuf, &[One, Zero]), Zero);
        assert_eq!(eval_combinational(GateKind::Tribuf, &[Zero, One]), Z);
        assert_eq!(eval_combinational(GateKind::Tribuf, &[X, One]), X);
    }

    #[test]
    #[should_panic(expected = "cannot take")]
    fn wrong_arity_panics() {
        eval_combinational(GateKind::Not, &[Bit::One, Bit::Zero]);
    }

    #[test]
    #[should_panic(expected = "sequential element")]
    fn sequential_kind_panics_in_combinational_eval() {
        eval_combinational(GateKind::Dff, &[Bit::One, Bit::Zero]);
    }

    #[test]
    fn dff_captures_only_on_rising_edge() {
        use Bit::{One as I, Zero as O};
        // rising edge captures d
        assert_eq!(eval_dff(O, I, I, O), SequentialUpdate { q: I, changed: true });
        // high level, falling edge and stable low all hold
        for (p, c) in [(I, I), (I, O), (O, O)] {
            assert_eq!(eval_dff(p, c, I, O), SequentialUpdate { q: O, changed: false });
        }
    }

    #[test]
    fn dff_unknown_clock_is_pessimistic() {
        use Logic4::*;
        assert_eq!(eval_dff(X, One, One, Zero).q, X);
        assert_eq!(eval_dff(Zero, X, One, Zero).q, X);
        // ...but not when the captured value would not change anything
        assert_eq!(eval_dff(Zero, X, One, One).q, One);
    }

    #[test]
    fn latch_transparent_and_holding() {
        use Logic4::*;
        assert_eq!(eval_latch(One, Zero, One).q, Zero);
        assert_eq!(eval_latch(Zero, Zero, One).q, One);
        assert_eq!(eval_latch(X, Zero, One).q, X);
        assert_eq!(eval_latch(X, One, One).q, One);
    }

    #[test]
    fn evaluation_consistent_across_value_systems() {
        // For purely Boolean inputs, Bit, Logic4 and Std9 must agree on every
        // combinational gate.
        for &kind in GateKind::all() {
            if kind.is_sequential()
                || kind.is_source()
                || kind == GateKind::Tribuf
                || kind == GateKind::Bus
            {
                // Tri-state and bus resolution are inherently multi-valued:
                // conflicting Boolean drivers resolve to X, which two-valued
                // logic cannot express.
                continue;
            }
            let arity = kind.min_inputs().max(2).min(kind.max_inputs().unwrap_or(3));
            for pattern in 0u32..(1 << arity) {
                let bits: Vec<Bit> =
                    (0..arity).map(|i| Bit::from_bool(pattern >> i & 1 == 1)).collect();
                let l4: Vec<Logic4> = bits.iter().map(|&b| b.into()).collect();
                let s9: Vec<Std9> = bits.iter().map(|&b| b.into()).collect();
                let rb = eval_combinational(kind, &bits);
                let r4 = eval_combinational(kind, &l4);
                let r9 = eval_combinational(kind, &s9);
                assert_eq!(r4, Logic4::from(rb), "{kind} pattern {pattern:b} (Logic4)");
                assert_eq!(r9, Std9::from(rb), "{kind} pattern {pattern:b} (Std9)");
            }
        }
    }
}
