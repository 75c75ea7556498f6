//! ISCAS `.bench` netlist format.
//!
//! The ISCAS-85 combinational and ISCAS-89 sequential benchmark suites —
//! which the paper's §V notes "have been pressed into service" as the de
//! facto workload for parallel logic simulation studies — are distributed in
//! a simple textual format:
//!
//! ```text
//! # comment
//! INPUT(G1)
//! OUTPUT(G22)
//! G10 = NAND(G1, G3)
//! G22 = DFF(G10)          # ISCAS-89 flip-flop: implicit global clock
//! ```
//!
//! [`parse`] reads this format (accepting both the ISCAS-89 single-input
//! `DFF(d)` form, for which an implicit clock input named [`IMPLICIT_CLOCK`]
//! is synthesized, and this crate's explicit two-input `DFF(clk, d)` form)
//! and [`write()`] emits it. The classic `c17` circuit ships embedded via
//! [`c17`].

use std::collections::HashMap;
use std::error::Error;
use std::fmt::{self, Display, Write as _};
use std::ops::Range;

use parsim_logic::GateKind;

use crate::{Circuit, CircuitBuilder, DelayModel, GateId, NetlistError};

/// Name of the clock input synthesized for ISCAS-89 style single-input
/// `DFF(d)` gates.
pub const IMPLICIT_CLOCK: &str = "__clk";

/// Error produced while reading `.bench` text.
///
/// Every parse-time variant carries the 1-based line number and the exact
/// offending token, so a bad line in a hundred-thousand-gate ISCAS file is
/// a one-jump fix.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum BenchParseError {
    /// A line could not be parsed at all.
    Syntax {
        /// 1-based line number.
        line: usize,
        /// The specific token the parser choked on.
        token: String,
        /// The whole offending line, trimmed.
        text: String,
    },
    /// A gate function name is not recognized.
    UnknownGate {
        /// 1-based line number.
        line: usize,
        /// The unknown function name.
        name: String,
    },
    /// A gate was given the wrong number of inputs.
    BadArity {
        /// 1-based line number.
        line: usize,
        /// The gate function name.
        func: String,
        /// How many arguments the line supplied.
        got: usize,
    },
    /// A net was defined (or declared `INPUT`) twice.
    DuplicateDefinition {
        /// 1-based line number of the *second* definition.
        line: usize,
        /// The redefined net name.
        name: String,
    },
    /// A net was referenced but never defined.
    UndefinedNet {
        /// 1-based line number of the first reference.
        line: usize,
        /// The undefined net name.
        name: String,
    },
    /// The netlist parsed but is structurally invalid (e.g. a
    /// combinational cycle spanning many lines).
    Invalid(NetlistError),
}

impl BenchParseError {
    /// The 1-based source line the error points at, when it has one.
    pub fn line(&self) -> Option<usize> {
        match self {
            BenchParseError::Syntax { line, .. }
            | BenchParseError::UnknownGate { line, .. }
            | BenchParseError::BadArity { line, .. }
            | BenchParseError::DuplicateDefinition { line, .. }
            | BenchParseError::UndefinedNet { line, .. } => Some(*line),
            BenchParseError::Invalid(_) => None,
        }
    }
}

impl Display for BenchParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BenchParseError::Syntax { line, token, text } => {
                write!(f, "line {line}: unexpected {token:?} in {text:?}")
            }
            BenchParseError::UnknownGate { line, name } => {
                write!(f, "line {line}: unknown gate function {name:?}")
            }
            BenchParseError::BadArity { line, func, got } => {
                write!(f, "line {line}: wrong number of inputs ({got}) for {func}")
            }
            BenchParseError::DuplicateDefinition { line, name } => {
                write!(f, "line {line}: net {name:?} is already defined")
            }
            BenchParseError::UndefinedNet { line, name } => {
                write!(f, "line {line}: net {name:?} is never defined")
            }
            BenchParseError::Invalid(e) => write!(f, "invalid netlist: {e}"),
        }
    }
}

impl Error for BenchParseError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            BenchParseError::Invalid(e) => Some(e),
            _ => None,
        }
    }
}

impl From<NetlistError> for BenchParseError {
    fn from(e: NetlistError) -> Self {
        BenchParseError::Invalid(e)
    }
}

/// Parses `.bench` text into a circuit, assigning delays from `delays`.
///
/// Nets are numbered in the order they are defined (an `INPUT` line, a
/// gate's left-hand side, or the implicit clock at the first `DFF(d)`), so
/// [`write()`]'s output — one definition per net, in id order — parses back
/// to the identical circuit, [`netlist_hash`](Circuit::netlist_hash)
/// included.
///
/// # Errors
///
/// Returns [`BenchParseError`] on malformed lines, unknown gate functions,
/// or a structurally invalid netlist (dangling nets, bad arity,
/// combinational cycles).
///
/// # Examples
///
/// ```
/// use parsim_netlist::{bench, DelayModel};
///
/// let src = "
/// INPUT(a)
/// INPUT(b)
/// OUTPUT(y)
/// y = NAND(a, b)
/// ";
/// let c = bench::parse("mini", src, DelayModel::Unit)?;
/// assert_eq!(c.len(), 3);
/// # Ok::<(), bench::BenchParseError>(())
/// ```
pub fn parse(name: &str, text: &str, delays: DelayModel) -> Result<Circuit, BenchParseError> {
    let mut b = CircuitBuilder::new(name);
    let mut names = Names::sized_for(text);
    // Every operand net at its first reference, with that line, in order:
    // the undefined one reported is the earliest.
    let mut refs: Vec<(usize, usize)> = Vec::new();
    // Gates whose operands resolve once every net is defined; a gate's
    // operand nets are its range of `operands`.
    let mut gates: Vec<(GateId, GateKind, Range<usize>)> = Vec::new();
    let mut operands: Vec<usize> = Vec::new();
    let mut outputs: Vec<(usize, usize)> = Vec::new();
    let mut clock: Option<usize> = None;

    for (lineno, raw) in text.lines().enumerate() {
        let line = lineno + 1;
        let stripped = match raw.split_once('#') {
            Some((head, _)) => head,
            None => raw,
        }
        .trim();
        if stripped.is_empty() {
            continue;
        }

        let syntax = |token: &str| BenchParseError::Syntax {
            line,
            token: token.to_owned(),
            text: raw.trim().to_owned(),
        };

        if let Some(arg) = strip_call(stripped, "INPUT") {
            let net = names.slot(arg);
            if names.nets[net].id.is_some() {
                return Err(BenchParseError::DuplicateDefinition { line, name: arg.to_owned() });
            }
            let id = b.declare(arg);
            names.nets[net].id = Some(id);
            b.define(id, GateKind::Input, [], delays.delay_for(GateKind::Input, id.index()));
            continue;
        }
        if let Some(arg) = strip_call(stripped, "OUTPUT") {
            outputs.push((names.slot(arg), line));
            continue;
        }

        // "lhs = FUNC(arg, arg, ...)"
        let Some((lhs, rhs)) = stripped.split_once('=') else {
            // No '=': the first word is where parsing derailed.
            return Err(syntax(stripped.split_whitespace().next().unwrap_or(stripped)));
        };
        let lhs = lhs.trim();
        let rhs = rhs.trim();
        let Some(open) = rhs.find('(') else {
            return Err(syntax(rhs));
        };
        if !rhs.ends_with(')') {
            return Err(syntax(rhs));
        }
        let func = rhs[..open].trim();
        let args_text = &rhs[open + 1..rhs.len() - 1];
        let kind: GateKind = func
            .parse()
            .map_err(|_| BenchParseError::UnknownGate { line, name: func.to_owned() })?;
        // `CONST0()` / `CONST1()` take no operands.
        let start = operands.len();
        if !args_text.trim().is_empty() {
            for arg in args_text.split(',') {
                let arg = arg.trim();
                if arg.is_empty() {
                    return Err(syntax(args_text.trim()));
                }
                let net = names.slot(arg);
                if !names.nets[net].referenced {
                    names.nets[net].referenced = true;
                    refs.push((net, line));
                }
                operands.push(net);
            }
        }
        // ISCAS-89 writes `DFF(d)`; synthesize the implicit clock pin.
        // It is an input like any other, delay included, so writing it as
        // one round-trips.
        if kind == GateKind::Dff && operands.len() - start == 1 {
            let clk = *clock.get_or_insert_with(|| names.slot(IMPLICIT_CLOCK));
            if names.nets[clk].id.is_none() {
                let id = b.declare(IMPLICIT_CLOCK);
                names.nets[clk].id = Some(id);
                b.define(id, GateKind::Input, [], delays.delay_for(GateKind::Input, id.index()));
            }
            operands.insert(start, clk);
        }
        let got = operands.len() - start;
        if !kind.accepts_inputs(got) {
            return Err(BenchParseError::BadArity { line, func: func.to_owned(), got });
        }
        let net = names.slot(lhs);
        if names.nets[net].id.is_some() {
            return Err(BenchParseError::DuplicateDefinition { line, name: lhs.to_owned() });
        }
        let id = b.declare(lhs);
        names.nets[net].id = Some(id);
        gates.push((id, kind, start..operands.len()));
    }

    // An output naming a net nothing defines or references is reported at
    // its own line; a referenced net that is never defined at the line of
    // its first reference.
    for &(net, line) in &outputs {
        let net = &names.nets[net];
        if net.id.is_none() && !net.referenced {
            return Err(BenchParseError::UndefinedNet { line, name: net.name.to_owned() });
        }
    }
    if let Some(&(net, line)) = refs.iter().find(|&&(net, _)| names.nets[net].id.is_none()) {
        return Err(BenchParseError::UndefinedNet { line, name: names.nets[net].name.to_owned() });
    }
    // Every output and operand net is now defined.
    let id_of = |net: usize| names.nets[net].id.expect("checked above: every net is defined");
    for (net, _) in outputs {
        b.output(names.nets[net].name, id_of(net));
    }
    for (id, kind, range) in gates {
        b.define(
            id,
            kind,
            operands[range].iter().map(|&net| id_of(net)),
            delays.delay_for(kind, id.index()),
        );
    }
    Ok(b.finish()?)
}

/// One distinct net name of a `.bench` text.
struct Net<'a> {
    name: &'a str,
    /// Its gate, once an `INPUT` line or a gate's left-hand side defines it.
    id: Option<GateId>,
    /// Whether any gate has named it as an operand.
    referenced: bool,
}

/// The parser's one name table: each name token is hashed once, into the
/// slot of `nets` that carries everything known about it. The hasher
/// stays std's randomly keyed one, since the names are client text.
struct Names<'a> {
    slots: HashMap<&'a str, usize>,
    nets: Vec<Net<'a>>,
}

impl<'a> Names<'a> {
    /// An empty table with room for about one name per 16 bytes of `text`
    /// (an ISCAS gate line is 15–30), so it rarely rehashes.
    fn sized_for(text: &str) -> Self {
        Names { slots: HashMap::with_capacity(text.len() / 16), nets: Vec::new() }
    }

    /// The slot of `name`, created on first sight.
    fn slot(&mut self, name: &'a str) -> usize {
        let next = self.nets.len();
        let slot = *self.slots.entry(name).or_insert(next);
        if slot == next {
            self.nets.push(Net { name, id: None, referenced: false });
        }
        slot
    }
}

fn strip_call<'a>(line: &'a str, keyword: &str) -> Option<&'a str> {
    let rest = line.strip_prefix(keyword)?.trim_start();
    let inner = rest.strip_prefix('(')?.strip_suffix(')')?;
    Some(inner.trim())
}

/// Writes a circuit as `.bench` text: its outputs, then one definition per
/// net in id order, which [`parse`] numbers back to the same ids.
///
/// Unnamed gates are given synthetic `gN` names. Flip-flops clocked by an
/// [`IMPLICIT_CLOCK`] input defined before them are written in the
/// single-input ISCAS-89 form.
///
/// # Examples
///
/// ```
/// use parsim_netlist::{bench, DelayModel};
///
/// let c = bench::s27ish();
/// let text = bench::write(&c);
/// let reparsed = bench::parse("s27ish", &text, DelayModel::Unit)?;
/// assert_eq!(reparsed.netlist_hash(), c.netlist_hash());
/// # Ok::<(), bench::BenchParseError>(())
/// ```
pub fn write(circuit: &Circuit) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "# {}", circuit.name());
    let name_of = |id: GateId| -> String {
        match circuit.gate(id).name() {
            Some(n) => n.to_owned(),
            None => format!("g{}", id.index()),
        }
    };
    let implicit_clk =
        circuit.find(IMPLICIT_CLOCK).filter(|&clk| circuit.kind(clk) == GateKind::Input);
    for &po in circuit.outputs() {
        let _ = writeln!(out, "OUTPUT({})", name_of(po));
    }
    for (id, g) in circuit.iter() {
        if g.kind() == GateKind::Input {
            let _ = writeln!(out, "INPUT({})", name_of(id));
            continue;
        }
        let mut fanin = g.fanin();
        if g.kind() == GateKind::Dff
            && implicit_clk.is_some_and(|clk| fanin.first() == Some(&clk) && clk < id)
        {
            fanin = &fanin[1..];
        }
        let args: Vec<String> = fanin.iter().map(|&f| name_of(f)).collect();
        let _ = writeln!(out, "{} = {}({})", name_of(id), g.kind(), args.join(", "));
    }
    out
}

/// The ISCAS-85 `c17` benchmark: five inputs, two outputs, six NAND gates.
///
/// The smallest ISCAS circuit, embedded for tests and examples.
pub fn c17() -> Circuit {
    parse("c17", C17_TEXT, DelayModel::Unit).expect("embedded c17 netlist is valid")
}

const C17_TEXT: &str = "
# c17 (ISCAS-85)
INPUT(1)
INPUT(2)
INPUT(3)
INPUT(6)
INPUT(7)
OUTPUT(22)
OUTPUT(23)
10 = NAND(1, 3)
11 = NAND(3, 6)
16 = NAND(2, 11)
19 = NAND(11, 7)
22 = NAND(10, 16)
23 = NAND(16, 19)
";

/// A small sequential benchmark in the spirit of ISCAS-89 `s27`: three
/// flip-flops with an implicit clock, four inputs, one output.
///
/// Public API: the shared sequential fixture that the netlist, lint and
/// bit-parallel test suites load from outside this module.
pub fn s27ish() -> Circuit {
    parse("s27ish", S27ISH_TEXT, DelayModel::Unit).expect("embedded s27ish netlist is valid")
}

const S27ISH_TEXT: &str = "
# small sequential benchmark (s27-like topology)
INPUT(G0)
INPUT(G1)
INPUT(G2)
INPUT(G3)
OUTPUT(G17)
G5 = DFF(G10)
G6 = DFF(G11)
G7 = DFF(G13)
G14 = NOT(G0)
G8 = AND(G14, G6)
G15 = OR(G12, G8)
G16 = OR(G3, G8)
G9 = NAND(G16, G15)
G10 = NOR(G14, G11)
G11 = NOR(G5, G9)
G12 = NOR(G1, G7)
G13 = NAND(G2, G12)
G17 = NOT(G11)
";

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Delay;

    #[test]
    fn c17_structure() {
        let c = c17();
        assert_eq!(c.len(), 11);
        assert_eq!(c.inputs().len(), 5);
        assert_eq!(c.outputs().len(), 2);
        assert_eq!(c.stats().gates_by_kind[&GateKind::Nand], 6);
        assert_eq!(c.stats().depth, 3);
    }

    #[test]
    fn s27ish_has_implicit_clock() {
        let c = s27ish();
        let clk = c.find(IMPLICIT_CLOCK).expect("implicit clock synthesized");
        assert!(c.inputs().contains(&clk));
        assert_eq!(c.sequential_elements().len(), 3);
        for ff in c.sequential_elements() {
            assert_eq!(c.fanin(ff)[0], clk, "all DFFs share the implicit clock");
        }
    }

    #[test]
    fn round_trip_combinational() {
        let c = c17();
        let text = write(&c);
        let c2 = parse("c17", &text, DelayModel::Unit).unwrap();
        assert_eq!(c2.len(), c.len());
        assert_eq!(c2.inputs().len(), c.inputs().len());
        assert_eq!(c2.outputs().len(), c.outputs().len());
        // Same topology: every gate's named fanin set matches.
        for (id, g) in c.iter() {
            let name = g.name().unwrap();
            let id2 = c2.find(name).unwrap();
            let fanin: Vec<_> =
                c.fanin(id).iter().map(|&f| c.gate(f).name().unwrap().to_owned()).collect();
            let fanin2: Vec<_> =
                c2.fanin(id2).iter().map(|&f| c2.gate(f).name().unwrap().to_owned()).collect();
            assert_eq!(fanin, fanin2, "fanin of {name}");
        }
    }

    #[test]
    fn round_trip_sequential() {
        let c = s27ish();
        let text = write(&c);
        let c2 = parse("s27ish", &text, DelayModel::Unit).unwrap();
        assert_eq!(c2.len(), c.len());
        assert_eq!(c2.sequential_elements().len(), 3);
    }

    #[test]
    fn forward_references_parse() {
        let src = "
        INPUT(a)
        OUTPUT(y)
        y = AND(m, a)
        m = NOT(a)
        ";
        let c = parse("fwd", src, DelayModel::Unit).unwrap();
        assert_eq!(c.len(), 3);
    }

    #[test]
    fn comments_and_blank_lines_ignored() {
        let src = "
        # header comment

        INPUT(a)   # trailing comment
        OUTPUT(y)
        y = NOT(a)
        ";
        assert_eq!(parse("c", src, DelayModel::Unit).unwrap().len(), 2);
    }

    #[test]
    fn syntax_error_reports_line_and_token() {
        let src = "INPUT(a)\nwhat is this";
        match parse("bad", src, DelayModel::Unit).unwrap_err() {
            BenchParseError::Syntax { line, token, text } => {
                assert_eq!(line, 2);
                assert_eq!(token, "what");
                assert_eq!(text, "what is this");
            }
            e => panic!("unexpected {e}"),
        }
    }

    #[test]
    fn missing_parenthesis_reports_rhs_token() {
        let src = "INPUT(a)\ny = NOT a\nOUTPUT(y)";
        match parse("bad", src, DelayModel::Unit).unwrap_err() {
            BenchParseError::Syntax { line, token, .. } => {
                assert_eq!(line, 2);
                assert_eq!(token, "NOT a");
            }
            e => panic!("unexpected {e}"),
        }
    }

    #[test]
    fn unknown_gate_reported() {
        let src = "INPUT(a)\ny = FROB(a)\nOUTPUT(y)";
        match parse("bad", src, DelayModel::Unit).unwrap_err() {
            BenchParseError::UnknownGate { line, name } => {
                assert_eq!(line, 2);
                assert_eq!(name, "FROB");
            }
            e => panic!("unexpected {e}"),
        }
    }

    #[test]
    fn bad_arity_reported_with_line() {
        let src = "INPUT(a)\nINPUT(b)\ny = NOT(a, b)\nOUTPUT(y)";
        match parse("bad", src, DelayModel::Unit).unwrap_err() {
            BenchParseError::BadArity { line, func, got } => {
                assert_eq!(line, 3);
                assert_eq!(func, "NOT");
                assert_eq!(got, 2);
            }
            e => panic!("unexpected {e}"),
        }
    }

    #[test]
    fn undefined_output_reported() {
        let src = "INPUT(a)\nOUTPUT(nope)\nb = NOT(a)";
        match parse("bad", src, DelayModel::Unit).unwrap_err() {
            BenchParseError::UndefinedNet { line, name } => {
                assert_eq!(line, 2);
                assert_eq!(name, "nope");
            }
            e => panic!("unexpected {e}"),
        }
    }

    #[test]
    fn duplicate_definition_rejected_with_line() {
        let src = "INPUT(a)\nb = NOT(a)\nb = NOT(a)\nOUTPUT(b)";
        match parse("bad", src, DelayModel::Unit).unwrap_err() {
            BenchParseError::DuplicateDefinition { line, name } => {
                assert_eq!(line, 3);
                assert_eq!(name, "b");
            }
            e => panic!("unexpected {e}"),
        }
    }

    #[test]
    fn delays_are_assigned_from_model() {
        let c = parse("c17", C17_TEXT, DelayModel::Fixed(Delay::new(4))).unwrap();
        let some_nand = c.find("10").unwrap();
        assert_eq!(c.delay(some_nand), Delay::new(4));
    }

    #[test]
    fn undefined_net_in_fanin_rejected_with_line() {
        let src = "INPUT(a)\ny = AND(a, ghost)\nOUTPUT(y)";
        match parse("bad", src, DelayModel::Unit).unwrap_err() {
            BenchParseError::UndefinedNet { line, name } => {
                assert_eq!(line, 2, "points at ghost's first reference");
                assert_eq!(name, "ghost");
            }
            e => panic!("unexpected {e}"),
        }
    }

    #[test]
    fn error_line_accessor() {
        let err = parse("bad", "INPUT(a)\nbogus", DelayModel::Unit).unwrap_err();
        assert_eq!(err.line(), Some(2));
        assert!(err.to_string().contains("line 2"));
    }
}
