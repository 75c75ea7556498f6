//! The pass trait and the pass registry.

use crate::context::LintContext;
use crate::diagnostic::{Diagnostic, Severity};
use crate::report::LintReport;

/// One static-analysis pass over a circuit (and optionally its partition).
///
/// A pass inspects the shared [`LintContext`] and appends any findings to
/// `out`. Passes must be deterministic: the same circuit must always produce
/// the same diagnostics in the same order, so reports are diffable.
pub trait LintPass {
    /// The pass's stable registry name (used for severity overrides;
    /// conventionally equal to the code it emits).
    fn name(&self) -> &'static str;

    /// The severity this pass emits unless overridden in the [`Linter`].
    fn default_severity(&self) -> Severity;

    /// Runs the pass, appending findings to `out`.
    ///
    /// Implementations should emit diagnostics at
    /// [`default_severity`](Self::default_severity); the [`Linter`] rewrites
    /// severities afterwards when the user configured an override.
    fn run(&self, ctx: &LintContext<'_>, out: &mut Vec<Diagnostic>);
}

struct Registered {
    pass: Box<dyn LintPass>,
    severity: Option<Severity>,
}

/// A configurable registry of [`LintPass`]es.
///
/// # Examples
///
/// ```
/// use parsim_lint::{Linter, LintContext, Severity};
/// use parsim_netlist::bench;
///
/// let c = bench::c17();
/// let mut linter = Linter::with_default_passes();
/// linter.set_severity("fanout-hotspot", Severity::Error);
/// let report = linter.run(&LintContext::new(&c));
/// assert!(report.is_clean()); // c17 is a clean little circuit
/// ```
pub struct Linter {
    passes: Vec<Registered>,
}

impl Linter {
    /// An empty linter; register passes with [`register`](Self::register).
    pub fn new() -> Self {
        Linter { passes: Vec::new() }
    }

    /// A linter with every built-in pass at its default severity.
    ///
    /// The partition-quality passes are included; they no-op unless the
    /// context carries a partition.
    pub fn with_default_passes() -> Self {
        use crate::passes;
        let mut linter = Linter::new();
        linter
            .register(passes::UnusedInput)
            .register(passes::DeadLogic)
            .register(passes::ConstCone)
            .register(passes::DuplicateGate)
            .register(passes::FanoutHotspot::default())
            .register(passes::ShapeImbalance::default())
            .register(passes::ZeroDelayLoop)
            .register(passes::LoadImbalance::default())
            .register(passes::HighCut::default());
        linter
    }

    /// Adds a pass at its default severity.
    pub fn register(&mut self, pass: impl LintPass + 'static) -> &mut Self {
        self.passes.push(Registered { pass: Box::new(pass), severity: None });
        self
    }

    /// Overrides the severity of every diagnostic a pass emits.
    ///
    /// Returns `true` if a pass with that name is registered.
    ///
    /// Public API: the linter's one per-pass setting, for a caller that
    /// gates on errors (the type's example). To leave a pass out, build the
    /// linter with [`new`](Self::new) and [`register`](Self::register) the
    /// others.
    pub fn set_severity(&mut self, pass: &str, severity: Severity) -> bool {
        match self.passes.iter_mut().find(|r| r.pass.name() == pass) {
            Some(r) => {
                r.severity = Some(severity);
                true
            }
            None => false,
        }
    }

    /// Names of all registered passes, in registration order.
    pub fn pass_names(&self) -> Vec<&'static str> {
        self.passes.iter().map(|r| r.pass.name()).collect()
    }

    /// Runs every registered pass and collects the findings.
    ///
    /// Diagnostics are sorted most severe first, then by code, then by first
    /// site, so reports are stable across runs.
    pub fn run(&self, ctx: &LintContext<'_>) -> LintReport {
        let mut diagnostics = Vec::new();
        for r in &self.passes {
            let start = diagnostics.len();
            r.pass.run(ctx, &mut diagnostics);
            if let Some(severity) = r.severity {
                for d in &mut diagnostics[start..] {
                    d.severity = severity;
                }
            }
        }
        diagnostics.sort_by(|a, b| {
            b.severity
                .cmp(&a.severity)
                .then_with(|| a.code.cmp(&b.code))
                .then_with(|| a.sites.first().cmp(&b.sites.first()))
        });
        LintReport::new(ctx.circuit().name().to_owned(), diagnostics)
    }
}

impl Default for Linter {
    fn default() -> Self {
        Linter::with_default_passes()
    }
}

impl std::fmt::Debug for Linter {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Linter").field("passes", &self.pass_names()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::diagnostic::Code;
    use parsim_netlist::bench;

    struct AlwaysFires;
    impl LintPass for AlwaysFires {
        fn name(&self) -> &'static str {
            "always-fires"
        }
        fn default_severity(&self) -> Severity {
            Severity::Note
        }
        fn run(&self, _ctx: &LintContext<'_>, out: &mut Vec<Diagnostic>) {
            out.push(Diagnostic::new(Code::DEAD_LOGIC, self.default_severity(), "synthetic"));
        }
    }

    #[test]
    fn register_run_and_override() {
        let c = bench::c17();
        let mut linter = Linter::new();
        linter.register(AlwaysFires);
        assert_eq!(linter.pass_names(), vec!["always-fires"]);

        let report = linter.run(&LintContext::new(&c));
        assert_eq!(report.diagnostics().len(), 1);
        assert_eq!(report.diagnostics()[0].severity, Severity::Note);

        assert!(linter.set_severity("always-fires", Severity::Error));
        let report = linter.run(&LintContext::new(&c));
        assert_eq!(report.diagnostics()[0].severity, Severity::Error);

        assert!(!linter.set_severity("no-such-pass", Severity::Note));
    }

    #[test]
    fn default_passes_all_registered() {
        let linter = Linter::with_default_passes();
        let names = linter.pass_names();
        for expected in [
            "unused-input",
            "dead-logic",
            "const-cone",
            "duplicate-gate",
            "fanout-hotspot",
            "shape-imbalance",
            "zero-delay-loop",
            "load-imbalance",
            "high-cut",
        ] {
            assert!(names.contains(&expected), "missing pass {expected}");
        }
    }
}
