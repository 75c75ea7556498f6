//! Build-time structural errors as diagnostics.
//!
//! These are not [`LintPass`](crate::LintPass)es: a constructed
//! [`Circuit`] is structurally valid by definition,
//! so structural problems can only be observed *during* construction. This
//! module upgrades the builder's error path — [`check_build`] runs
//! [`CircuitBuilder::finish_with_diagnostics`] and converts every
//! [`NetlistError`] it reports into a site-carrying [`Diagnostic`],
//! including the full combinational cycle path.

use parsim_netlist::{Circuit, CircuitBuilder, NetlistError, StructuralReport};

use crate::diagnostic::{Code, Diagnostic, Severity};
use crate::report::LintReport;

/// Converts one builder issue into a diagnostic: its message is the issue's
/// own, its sites the gates the issue names.
pub fn diagnose_issue(issue: &NetlistError) -> Diagnostic {
    let (code, sites, help) = match issue {
        NetlistError::Empty => (Code::EMPTY_CIRCUIT, &[][..], None),
        NetlistError::UndefinedGate { gate, .. } => (
            Code::UNDEFINED_GATE,
            std::slice::from_ref(gate),
            Some("define the gate, or remove the references to it"),
        ),
        NetlistError::BadArity { gate, .. } => (Code::BAD_ARITY, std::slice::from_ref(gate), None),
        NetlistError::DuplicateName { gates, .. } => {
            (Code::DUPLICATE_NAME, &gates[..], Some("rename all but one of the gates"))
        }
        NetlistError::CombinationalCycle { gates, .. } => (
            Code::COMBINATIONAL_CYCLE,
            &gates[..],
            Some("break the loop with a flip-flop or latch, or remove the feedback path"),
        ),
    };
    let d =
        Diagnostic::new(code, Severity::Error, issue.to_string()).with_sites(sites.iter().copied());
    match help {
        Some(help) => d.with_help(help),
        None => d,
    }
}

/// Converts a whole builder report into diagnostics, in report order.
pub fn diagnose_build(report: &StructuralReport) -> Vec<Diagnostic> {
    report.issues().iter().map(diagnose_issue).collect()
}

/// Finishes a builder, returning either the circuit or a [`LintReport`] with
/// every structural problem as an error diagnostic.
///
/// # Errors
///
/// Returns the report when the circuit under construction is invalid.
///
/// # Examples
///
/// ```
/// use parsim_lint::{check_build, Code};
/// use parsim_logic::GateKind;
/// use parsim_netlist::{CircuitBuilder, Delay};
///
/// let mut b = CircuitBuilder::new("bad_loop");
/// let a = b.declare("a");
/// let c = b.gate(GateKind::Not, [a], Delay::UNIT);
/// b.define(a, GateKind::Not, [c], Delay::UNIT);
/// b.output("y", c);
///
/// let report = check_build(b).unwrap_err();
/// let cycle = &report.diagnostics()[0];
/// assert_eq!(cycle.code, Code::COMBINATIONAL_CYCLE);
/// assert_eq!(cycle.sites.len(), 2); // the full loop, not just a name
/// ```
pub fn check_build(builder: CircuitBuilder) -> Result<Circuit, LintReport> {
    let name = builder.name().to_owned();
    builder
        .finish_with_diagnostics()
        .map_err(|report| LintReport::new(name, diagnose_build(&report)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use parsim_logic::GateKind;
    use parsim_netlist::{Delay, GateId};

    #[test]
    fn empty_circuit_reported() {
        let report = check_build(CircuitBuilder::new("e")).unwrap_err();
        assert_eq!(report.diagnostics().len(), 1);
        assert_eq!(report.diagnostics()[0].code, Code::EMPTY_CIRCUIT);
        assert_eq!(report.circuit(), "e");
    }

    #[test]
    fn all_issues_collected_not_just_first() {
        let mut b = CircuitBuilder::new("multi");
        let a = b.input("a");
        let ghost = b.declare("ghost");
        b.gate(GateKind::And, [a, ghost], Delay::UNIT);
        b.named_gate("m", GateKind::Mux2, [a, a], Delay::UNIT); // bad arity
        b.named_gate("a", GateKind::Buf, [a], Delay::UNIT); // duplicate name
        let report = check_build(b).unwrap_err();
        let codes: Vec<Code> = report.diagnostics().iter().map(|d| d.code).collect();
        assert!(codes.contains(&Code::UNDEFINED_GATE));
        assert!(codes.contains(&Code::BAD_ARITY));
        assert!(codes.contains(&Code::DUPLICATE_NAME));
        assert!(report.has_errors());
    }

    #[test]
    fn cycle_diagnostic_carries_full_path() {
        let mut b = CircuitBuilder::new("loop3");
        let p = b.input("p");
        let x = b.declare("x");
        let y = b.named_gate("y", GateKind::And, [p, x], Delay::UNIT);
        let z = b.named_gate("z", GateKind::Not, [y], Delay::UNIT);
        b.define(x, GateKind::Buf, [z], Delay::UNIT);
        b.output("o", z);
        let report = check_build(b).unwrap_err();
        let d = report.with_code(Code::COMBINATIONAL_CYCLE).next().unwrap();
        assert_eq!(d.severity, Severity::Error);
        // The three gates on the loop are all sites, with names in the text.
        assert_eq!(d.sites.len(), 3);
        for g in [x, y, z] {
            assert!(d.sites.contains(&g), "missing {g}");
        }
        for name in ["\"x\"", "\"y\"", "\"z\""] {
            assert!(d.message.contains(name), "message {:?} lacks {name}", d.message);
        }
    }

    #[test]
    fn duplicate_name_lists_every_holder() {
        let mut b = CircuitBuilder::new("dups");
        let a = b.input("n");
        b.named_gate("n", GateKind::Buf, [a], Delay::UNIT);
        b.named_gate("n", GateKind::Not, [a], Delay::UNIT);
        let report = check_build(b).unwrap_err();
        let d = report.with_code(Code::DUPLICATE_NAME).next().unwrap();
        assert_eq!(d.sites, vec![GateId::new(0), GateId::new(1), GateId::new(2)]);
    }

    #[test]
    fn valid_builder_passes_through() {
        let mut b = CircuitBuilder::new("ok");
        let a = b.input("a");
        let g = b.gate(GateKind::Not, [a], Delay::UNIT);
        b.output("y", g);
        let c = check_build(b).unwrap();
        assert_eq!(c.len(), 2);
    }
}
