//! Parallel-performance passes: fanout hotspots, shape imbalance and
//! zero-delay feedback loops.

use parsim_netlist::{Condensation, Delay, GateId};

use crate::context::LintContext;
use crate::diagnostic::{Code, Diagnostic, Severity};
use crate::linter::LintPass;

/// Flags nets whose fanout exceeds a threshold.
///
/// Every output event on such a net becomes `fanout` messages in the
/// event-driven kernels — the classic event-storm amplifier. Clock and
/// latch-enable pins are exempt: a clock tree legitimately reaches every
/// sequential element, and the kernels treat clock distribution separately.
#[derive(Debug, Clone, Copy)]
pub struct FanoutHotspot {
    /// Smallest effective (non-clock) fanout that triggers the lint.
    pub threshold: usize,
}

impl Default for FanoutHotspot {
    fn default() -> Self {
        FanoutHotspot { threshold: 32 }
    }
}

impl LintPass for FanoutHotspot {
    fn name(&self) -> &'static str {
        "fanout-hotspot"
    }

    fn default_severity(&self) -> Severity {
        Severity::Warning
    }

    fn run(&self, ctx: &LintContext<'_>, out: &mut Vec<Diagnostic>) {
        let c = ctx.circuit();
        for id in c.ids() {
            // Effective fanout: skip sinks reading on pin 0 of a sequential
            // element (the DFF clock / latch enable pin).
            let effective = c
                .fanout(id)
                .iter()
                .filter(|e| !(c.kind(e.gate).is_sequential() && e.pin == 0))
                .count();
            if effective >= self.threshold {
                out.push(
                    Diagnostic::new(
                        Code::FANOUT_HOTSPOT,
                        self.default_severity(),
                        format!(
                            "net {} fans out to {effective} gate(s) (threshold {})",
                            ctx.name_of(id),
                            self.threshold,
                        ),
                    )
                    .with_site(id)
                    .with_help(
                        "buffer the net as a tree, or expect event storms in event-driven runs",
                    ),
                );
            }
        }
    }
}

/// Flags circuits that are much deeper than they are wide.
///
/// The mean number of gates per topological level bounds the parallelism any
/// §IV kernel can extract: a deep, narrow circuit serializes on its critical
/// path no matter how it is partitioned.
#[derive(Debug, Clone, Copy)]
pub struct ShapeImbalance {
    /// Depth below which the lint never fires (small circuits are exempt).
    pub min_depth: u32,
    /// Fires when the mean gates-per-level falls below this.
    pub min_mean_width: f64,
}

impl Default for ShapeImbalance {
    fn default() -> Self {
        ShapeImbalance { min_depth: 24, min_mean_width: 3.0 }
    }
}

impl LintPass for ShapeImbalance {
    fn name(&self) -> &'static str {
        "shape-imbalance"
    }

    fn default_severity(&self) -> Severity {
        Severity::Note
    }

    fn run(&self, ctx: &LintContext<'_>, out: &mut Vec<Diagnostic>) {
        let lv = ctx.levels();
        let depth = lv.depth();
        if depth < self.min_depth {
            return;
        }
        let c = ctx.circuit();
        let interior = c.ids().filter(|&id| lv.level(id) > 0).count();
        let mean_width = interior as f64 / f64::from(depth);
        if mean_width >= self.min_mean_width {
            return;
        }
        // Anchor the finding at the deepest gates — the end of the critical
        // path that caps parallelism.
        let deepest: Vec<GateId> = c.ids().filter(|&id| lv.level(id) == depth).collect();
        out.push(
            Diagnostic::new(
                Code::SHAPE_IMBALANCE,
                self.default_severity(),
                format!(
                    "circuit is deep and narrow: depth {depth}, mean width {mean_width:.1} \
                     gates/level (threshold {:.1})",
                    self.min_mean_width,
                ),
            )
            .with_sites(deepest)
            .with_help("expect limited speedup: available parallelism is bounded by level width"),
        );
    }
}

/// Flags feedback loops whose total propagation delay is zero.
///
/// Construction guarantees every loop passes through a flip-flop or latch,
/// but if every element on the loop has zero delay, a transparent latch can
/// re-excite the loop within a single simulation instant — livelocking
/// event-driven kernels and breaking the lookahead assumption of the
/// conservative ones.
///
/// Reports one finding per strongly connected component of the zero-delay
/// subgraph that holds a loop (more than one gate, or one gate reading its
/// own output), with every gate of the component as a site: loops that
/// share gates are one finding. One [`Condensation`], linear in gates and
/// edges.
#[derive(Debug, Clone, Copy, Default)]
pub struct ZeroDelayLoop;

impl LintPass for ZeroDelayLoop {
    fn name(&self) -> &'static str {
        "zero-delay-loop"
    }

    fn default_severity(&self) -> Severity {
        Severity::Warning
    }

    fn run(&self, ctx: &LintContext<'_>, out: &mut Vec<Diagnostic>) {
        let c = ctx.circuit();
        // The zero-delay subgraph keeps *all* its edges, including edges
        // into sequential elements, which is exactly where legal feedback
        // lives. Each of its cyclic components is one finding.
        let keep =
            |from: GateId, to: GateId| c.delay(from) == Delay::ZERO && c.delay(to) == Delay::ZERO;
        let dag = Condensation::of(c, keep);
        for comp in 0..dag.len() {
            let members = dag.members(comp);
            let g = members[0];
            if members.len() == 1 && !(keep(g, g) && c.fanin(g).contains(&g)) {
                continue;
            }
            let mut sites = members.to_vec();
            sites.sort_unstable();
            let names: Vec<String> = sites.iter().map(|&id| ctx.name_of(id)).collect();
            out.push(
                Diagnostic::new(
                    Code::ZERO_DELAY_LOOP,
                    self.default_severity(),
                    format!("feedback loop with zero total delay through {}", names.join(", ")),
                )
                .with_sites(sites)
                .with_help("give at least one element on the loop a nonzero delay"),
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use parsim_logic::GateKind;
    use parsim_netlist::{bench, Circuit, CircuitBuilder};

    fn run_pass(pass: &dyn LintPass, c: &Circuit) -> Vec<Diagnostic> {
        let ctx = LintContext::new(c);
        let mut out = Vec::new();
        pass.run(&ctx, &mut out);
        out
    }

    #[test]
    fn c17_is_clean_under_performance_passes() {
        let c = bench::c17();
        for pass in
            [&FanoutHotspot::default() as &dyn LintPass, &ShapeImbalance::default(), &ZeroDelayLoop]
        {
            assert!(run_pass(pass, &c).is_empty(), "pass {} fired on c17", pass.name());
        }
    }

    #[test]
    fn hotspot_counts_data_pins_only() {
        let mut b = CircuitBuilder::new("t");
        let clk = b.input("clk");
        let d = b.input("d");
        // clk drives 40 DFF clock pins (exempt) and zero data pins.
        let mut qs = Vec::new();
        for _ in 0..40 {
            qs.push(b.gate(GateKind::Dff, [clk, d], Delay::UNIT));
        }
        let y = b.gate(GateKind::Bus, qs, Delay::UNIT);
        b.output("y", y);
        let c = b.finish().unwrap();
        let diags = run_pass(&FanoutHotspot { threshold: 32 }, &c);
        // d (40 data pins) fires; clk (40 clock pins) does not.
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].sites, vec![c.inputs()[1]]);
        assert!(diags[0].message.contains("40"));
    }

    #[test]
    fn deep_narrow_chain_flagged() {
        let mut b = CircuitBuilder::new("chain");
        let mut cur = b.input("a");
        for i in 0..30 {
            cur = b.named_gate(format!("n{i}"), GateKind::Not, [cur], Delay::UNIT);
        }
        b.output("y", cur);
        let c = b.finish().unwrap();
        let diags = run_pass(&ShapeImbalance::default(), &c);
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].code, Code::SHAPE_IMBALANCE);
        assert_eq!(diags[0].sites, vec![c.outputs()[0]]);
    }

    #[test]
    fn zero_delay_latch_loop_flagged() {
        let mut b = CircuitBuilder::new("t");
        let en = b.input("en");
        let q = b.declare("q");
        let inv = b.named_gate("inv", GateKind::Not, [q], Delay::ZERO);
        b.define(q, GateKind::Latch, [en, inv], Delay::ZERO);
        b.output("q", q);
        let c = b.finish().unwrap();
        let diags = run_pass(&ZeroDelayLoop, &c);
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].code, Code::ZERO_DELAY_LOOP);
        assert!(diags[0].sites.contains(&q) && diags[0].sites.contains(&inv));
    }

    #[test]
    fn unit_delay_on_loop_silences() {
        let mut b = CircuitBuilder::new("t");
        let en = b.input("en");
        let q = b.declare("q");
        let inv = b.gate(GateKind::Not, [q], Delay::UNIT); // nonzero
        b.define(q, GateKind::Latch, [en, inv], Delay::ZERO);
        b.output("q", q);
        let c = b.finish().unwrap();
        assert!(run_pass(&ZeroDelayLoop, &c).is_empty());
    }
}
