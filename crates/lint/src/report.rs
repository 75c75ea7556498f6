//! Rendering collected diagnostics.

use std::fmt::Write as _;

use crate::diagnostic::{Diagnostic, Severity};

/// The result of a [`Linter::run`](crate::Linter::run): every diagnostic,
/// plus rendering helpers.
///
/// # Examples
///
/// ```
/// use parsim_lint::{LintContext, Linter};
/// use parsim_netlist::bench;
///
/// let c = bench::c17();
/// let report = Linter::with_default_passes().run(&LintContext::new(&c));
/// assert!(report.is_clean());
/// assert!(report.render_pretty().contains("clean"));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LintReport {
    circuit: String,
    diagnostics: Vec<Diagnostic>,
}

impl LintReport {
    pub(crate) fn new(circuit: String, diagnostics: Vec<Diagnostic>) -> Self {
        LintReport { circuit, diagnostics }
    }

    /// Name of the analyzed circuit.
    pub fn circuit(&self) -> &str {
        &self.circuit
    }

    /// All diagnostics, most severe first.
    pub fn diagnostics(&self) -> &[Diagnostic] {
        &self.diagnostics
    }

    /// Returns `true` if nothing at all was reported.
    pub fn is_clean(&self) -> bool {
        self.diagnostics.is_empty()
    }

    /// Returns `true` if any diagnostic is an error.
    ///
    /// Public API: the gate a caller fails a build on; the seeded-defect
    /// suite checks it from outside the crate.
    pub fn has_errors(&self) -> bool {
        self.count(Severity::Error) > 0
    }

    /// Number of diagnostics at exactly the given severity.
    pub fn count(&self, severity: Severity) -> usize {
        self.diagnostics.iter().filter(|d| d.severity == severity).count()
    }

    /// The diagnostics carrying a particular code.
    ///
    /// Public API: how a caller finds one finding's sites; the seeded-defect
    /// suite looks its diagnostics up by it from outside the crate.
    pub fn with_code(&self, code: crate::Code) -> impl Iterator<Item = &Diagnostic> + '_ {
        self.diagnostics.iter().filter(move |d| d.code == code)
    }

    /// Renders a human-readable multi-line report.
    ///
    /// ```text
    /// lint report for "adder": 1 error, 2 warnings, 0 notes
    /// error[combinational-cycle]: combinational cycle through "a" -> "b"
    ///   sites: g3, g4
    ///   help: break the loop with a flip-flop or latch
    /// ...
    /// ```
    pub fn render_pretty(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "lint report for {:?}: {} error(s), {} warning(s), {} note(s){}",
            self.circuit,
            self.count(Severity::Error),
            self.count(Severity::Warning),
            self.count(Severity::Note),
            if self.is_clean() { " — clean" } else { "" },
        );
        for d in &self.diagnostics {
            let _ = writeln!(out, "{d}");
            if !d.sites.is_empty() {
                let sites: Vec<String> = d.sites.iter().map(ToString::to_string).collect();
                let _ = writeln!(out, "  sites: {}", sites.join(", "));
            }
            if let Some(help) = &d.help {
                let _ = writeln!(out, "  help: {help}");
            }
        }
        out
    }

    /// Renders one tab-separated record per diagnostic, for scripting:
    ///
    /// ```text
    /// circuit<TAB>severity<TAB>code<TAB>site,site,...<TAB>message
    /// ```
    pub fn render_machine(&self) -> String {
        let mut out = String::new();
        for d in &self.diagnostics {
            let sites: Vec<String> = d.sites.iter().map(ToString::to_string).collect();
            let _ = writeln!(
                out,
                "{}\t{}\t{}\t{}\t{}",
                self.circuit,
                d.severity,
                d.code,
                sites.join(","),
                d.message
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Code;
    use parsim_netlist::GateId;

    fn sample() -> LintReport {
        LintReport::new(
            "t".to_owned(),
            vec![
                Diagnostic::new(Code::COMBINATIONAL_CYCLE, Severity::Error, "cycle a -> b")
                    .with_sites([GateId::new(4), GateId::new(3)])
                    .with_help("break the loop"),
                Diagnostic::new(Code::DEAD_LOGIC, Severity::Warning, "gate g3 is dead")
                    .with_site(GateId::new(3)),
            ],
        )
    }

    #[test]
    fn counting_and_lookup() {
        let r = sample();
        assert!(!r.is_clean());
        assert!(r.has_errors());
        assert_eq!(r.count(Severity::Warning), 1);
        assert_eq!(r.with_code(Code::DEAD_LOGIC).count(), 1);
    }

    #[test]
    fn pretty_rendering_shows_sites_and_help() {
        let text = sample().render_pretty();
        assert!(text.starts_with("lint report for \"t\": 1 error(s), 1 warning(s), 0 note(s)"));
        assert!(text.contains("error[combinational-cycle]: cycle a -> b"));
        assert!(text.contains("  sites: g4, g3"));
        assert!(text.contains("  help: break the loop"));
    }

    #[test]
    fn machine_rendering_is_one_record_per_line() {
        let text = sample().render_machine();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        assert_eq!(lines[0], "t\terror\tcombinational-cycle\tg4,g3\tcycle a -> b");
        assert_eq!(lines[1].split('\t').count(), 5);
    }

    #[test]
    fn clean_report_renders_clean() {
        let r = LintReport::new("ok".to_owned(), Vec::new());
        assert!(r.render_pretty().contains("— clean"));
        assert_eq!(r.render_machine(), "");
    }
}
