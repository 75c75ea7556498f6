//! One seeded defect per lint pass: each test starts from a known-clean
//! circuit, introduces exactly one flaw, runs the *full* default linter (or
//! the build-time checker for structural flaws) and asserts that precisely
//! the expected diagnostic comes back — right code, right severity, and at
//! least one site pointing at the seeded gate.

use parsim_lint::{check_build, Code, Diagnostic, LintContext, Linter, Severity};
use parsim_logic::GateKind;
use parsim_netlist::{bench, Circuit, CircuitBuilder, Delay};
use parsim_partition::{GateWeights, Partition};

/// Runs the default linter (no partition) and returns the diagnostics.
fn lint(c: &Circuit) -> Vec<Diagnostic> {
    Linter::with_default_passes().run(&LintContext::new(c)).diagnostics().to_vec()
}

/// Asserts the report contains exactly one diagnostic, with the given code
/// and severity, whose sites include `site`.
fn assert_single(
    diags: &[Diagnostic],
    code: Code,
    severity: Severity,
    site: parsim_netlist::GateId,
) {
    assert_eq!(diags.len(), 1, "expected exactly the seeded defect, got: {diags:?}");
    assert_eq!(diags[0].code, code);
    assert_eq!(diags[0].severity, severity);
    assert!(diags[0].sites.contains(&site), "sites {:?} missing seeded {site}", diags[0].sites);
}

/// A minimal clean base: `y = a AND b`. Returns the builder plus the ids of
/// `a`, `b` and the AND, for seeding defects against.
fn clean_base() -> (CircuitBuilder, [parsim_netlist::GateId; 3]) {
    let mut b = CircuitBuilder::new("base");
    let a = b.input("a");
    let x = b.input("b");
    let and = b.gate(GateKind::And, [a, x], Delay::UNIT);
    b.output("y", and);
    (b, [a, x, and])
}

#[test]
fn base_is_clean() {
    let c = clean_base().0.finish().unwrap();
    assert!(lint(&c).is_empty());
}

// ── build-time structural defects ─────────────────────────────────────────

#[test]
fn seeded_empty_circuit() {
    let report = check_build(CircuitBuilder::new("empty")).unwrap_err();
    assert!(report.has_errors());
    assert_eq!(report.diagnostics().len(), 1);
    assert_eq!(report.diagnostics()[0].code, Code::EMPTY_CIRCUIT);
    assert_eq!(report.diagnostics()[0].severity, Severity::Error);
}

#[test]
fn seeded_undefined_gate() {
    let (mut b, _) = clean_base();
    let ghost = b.declare("ghost");
    let report = check_build(b).unwrap_err();
    assert_single(report.diagnostics(), Code::UNDEFINED_GATE, Severity::Error, ghost);
}

#[test]
fn seeded_bad_arity() {
    let (mut b, [a, x, _]) = clean_base();
    let bad = b.named_gate("two_pin_not", GateKind::Not, [a, x], Delay::UNIT);
    b.output("z", bad);
    let report = check_build(b).unwrap_err();
    assert_single(report.diagnostics(), Code::BAD_ARITY, Severity::Error, bad);
}

#[test]
fn seeded_duplicate_name() {
    let (mut b, [a, _, _]) = clean_base();
    let g1 = b.named_gate("twin", GateKind::Buf, [a], Delay::UNIT);
    let g2 = b.named_gate("twin", GateKind::Not, [a], Delay::UNIT);
    b.output("o1", g1);
    b.output("o2", g2);
    let report = check_build(b).unwrap_err();
    assert!(report.diagnostics().iter().any(|d| {
        d.code == Code::DUPLICATE_NAME
            && d.severity == Severity::Error
            && d.sites.contains(&g1)
            && d.sites.contains(&g2)
    }));
}

#[test]
fn seeded_combinational_cycle() {
    let (mut b, _) = clean_base();
    let back = b.declare("back");
    let fwd = b.named_gate("fwd", GateKind::Not, [back], Delay::UNIT);
    b.define(back, GateKind::Not, [fwd], Delay::UNIT);
    b.output("osc", back);
    let report = check_build(b).unwrap_err();
    assert_single(report.diagnostics(), Code::COMBINATIONAL_CYCLE, Severity::Error, back);
    assert!(report.diagnostics()[0].sites.contains(&fwd));
    assert!(report.diagnostics()[0].message.contains("\"back\""));
}

// ── logic-quality defects ─────────────────────────────────────────────────

#[test]
fn seeded_unused_input() {
    let (mut b, _) = clean_base();
    let spare = b.input("spare");
    let c = b.finish().unwrap();
    assert_single(&lint(&c), Code::UNUSED_INPUT, Severity::Warning, spare);
}

#[test]
fn seeded_dead_logic() {
    let (mut b, [_, _, y]) = clean_base();
    let dead = b.named_gate("dead", GateKind::Not, [y], Delay::UNIT);
    let c = b.finish().unwrap();
    assert_single(&lint(&c), Code::DEAD_LOGIC, Severity::Warning, dead);
}

#[test]
fn seeded_const_cone() {
    let (mut b, [_, _, y]) = clean_base();
    let one = b.constant(true);
    let folded = b.named_gate("folded", GateKind::Not, [one], Delay::UNIT);
    // Route the constant into live logic so only ConstCone fires; the OR has
    // a non-constant fanin and must stay unflagged.
    let or = b.gate(GateKind::Or, [y, folded], Delay::UNIT);
    b.output("z", or);
    let c = b.finish().unwrap();
    let diags = lint(&c);
    assert_single(&diags, Code::CONST_CONE, Severity::Note, folded);
    assert!(!diags[0].sites.contains(&or));
}

#[test]
fn seeded_duplicate_gate() {
    let (mut b, [a, x, _]) = clean_base();
    // Same function as the base AND, fanin order swapped.
    let twin = b.named_gate("twin", GateKind::And, [x, a], Delay::UNIT);
    b.output("z", twin);
    let c = b.finish().unwrap();
    let diags = lint(&c);
    assert_eq!(diags.len(), 1, "{diags:?}");
    assert_eq!(diags[0].code, Code::DUPLICATE_GATE);
    assert_eq!(diags[0].severity, Severity::Note);
    assert!(diags[0].sites.contains(&twin));
    assert_eq!(diags[0].sites.len(), 2);
}

// ── performance defects ───────────────────────────────────────────────────

#[test]
fn seeded_fanout_hotspot() {
    let mut b = CircuitBuilder::new("hot");
    let hub = b.input("hub");
    // 40 sinks on distinct second pins: over the default threshold of 32,
    // but wide and shallow, so no other pass has an opinion.
    for i in 0..40 {
        let other = b.input(format!("in{i}"));
        let g = b.gate(GateKind::And, [hub, other], Delay::UNIT);
        b.output(format!("o{i}"), g);
    }
    let c = b.finish().unwrap();
    assert_single(&lint(&c), Code::FANOUT_HOTSPOT, Severity::Warning, hub);
}

#[test]
fn seeded_shape_imbalance() {
    let mut b = CircuitBuilder::new("needle");
    let a = b.input("a");
    let mut cur = a;
    for _ in 0..30 {
        cur = b.gate(GateKind::Not, [cur], Delay::UNIT);
    }
    b.output("y", cur);
    let c = b.finish().unwrap();
    // The deepest gate is the representative site.
    assert_single(&lint(&c), Code::SHAPE_IMBALANCE, Severity::Note, cur);
}

#[test]
fn seeded_zero_delay_loop() {
    let mut b = CircuitBuilder::new("latch_race");
    let en = b.input("en");
    let a = b.input("a");
    let q = b.declare("q");
    let g = b.named_gate("g", GateKind::And, [q, a], Delay::ZERO);
    b.define(q, GateKind::Latch, [en, g], Delay::ZERO);
    b.output("y", q);
    let c = b.finish().unwrap();
    let diags = lint(&c);
    assert_single(&diags, Code::ZERO_DELAY_LOOP, Severity::Warning, q);
    assert!(diags[0].sites.contains(&g));
}

/// A zero-delay latch loop `q = LATCH(en, AND(data, q))`, with `data` on
/// the AND's pin 0. Returns `[q, and]`.
fn zero_delay_latch(
    b: &mut CircuitBuilder,
    en: parsim_netlist::GateId,
    data: parsim_netlist::GateId,
) -> [parsim_netlist::GateId; 2] {
    let q = b.declare(format!("q{}", b.len()));
    let and = b.gate(GateKind::And, [data, q], Delay::ZERO);
    b.define(q, GateKind::Latch, [en, and], Delay::ZERO);
    [q, and]
}

#[test]
fn a_zero_delay_loop_downstream_of_another_is_reported() {
    let mut b = CircuitBuilder::new("two_latch_races");
    let en = b.input("en");
    let a = b.input("a");
    let loop_a = zero_delay_latch(&mut b, en, a);
    let loop_b = zero_delay_latch(&mut b, en, loop_a[0]);
    b.output("y", loop_b[0]);
    let c = b.finish().unwrap();
    let diags = lint(&c);
    assert_eq!(diags.len(), 2, "{diags:?}");
    let mut sites: Vec<Vec<parsim_netlist::GateId>> =
        diags.iter().map(|d| d.sites.clone()).collect();
    sites.sort();
    let (mut want_a, mut want_b) = (loop_a.to_vec(), loop_b.to_vec());
    want_a.sort();
    want_b.sort();
    assert_eq!(sites, [want_a, want_b]);
    assert!(diags.iter().all(|d| d.code == Code::ZERO_DELAY_LOOP));
}

#[test]
fn a_zero_delay_loop_feeding_a_long_chain_is_reported_once() {
    let mut b = CircuitBuilder::new("latch_race_and_chain");
    let en = b.input("en");
    let a = b.input("a");
    let [q, _] = zero_delay_latch(&mut b, en, a);
    let mut cur = q;
    for _ in 0..100_000 {
        cur = b.gate(GateKind::Buf, [cur], Delay::ZERO);
    }
    b.output("y", cur);
    let c = b.finish().unwrap();
    let report = Linter::with_default_passes().run(&LintContext::new(&c));
    assert_eq!(report.with_code(Code::ZERO_DELAY_LOOP).count(), 1);
}

#[test]
fn a_zero_delay_self_loop_is_reported() {
    let mut b = CircuitBuilder::new("latch_holds_itself");
    let en = b.input("en");
    let q = b.declare("q");
    b.define(q, GateKind::Latch, [en, q], Delay::ZERO);
    b.output("y", q);
    let c = b.finish().unwrap();
    let diags = lint(&c);
    assert_eq!(diags.len(), 1, "{diags:?}");
    assert_eq!(diags[0].code, Code::ZERO_DELAY_LOOP);
    assert_eq!(diags[0].sites, [q]);
}

// ── partition-quality defects ─────────────────────────────────────────────

#[test]
fn seeded_load_imbalance() {
    let c = bench::c17();
    let mut assignment = vec![0usize; c.len()];
    assignment[c.len() - 1] = 1; // 10-vs-1 split
    let p = Partition::new(2, assignment).unwrap();
    let w = GateWeights::uniform(c.len());
    let report = Linter::with_default_passes().run(&LintContext::new(&c).with_partition(&p, &w));
    let diags: Vec<_> = report.with_code(Code::LOAD_IMBALANCE).collect();
    assert_eq!(diags.len(), 1);
    assert_eq!(diags[0].severity, Severity::Warning);
    assert!(diags[0].sites.iter().all(|&g| p.block_of(g) == 0));
    assert!(!diags[0].sites.is_empty());
}

#[test]
fn seeded_high_cut() {
    // A buffer chain split alternately: every fanout edge crosses blocks.
    let mut b = CircuitBuilder::new("chain");
    let a = b.input("a");
    let mut cur = a;
    for _ in 0..11 {
        cur = b.gate(GateKind::Buf, [cur], Delay::UNIT);
    }
    b.output("y", cur);
    let c = b.finish().unwrap();
    let p = Partition::new(2, (0..c.len()).map(|i| i % 2).collect()).unwrap();
    let w = GateWeights::uniform(c.len());
    let report = Linter::with_default_passes().run(&LintContext::new(&c).with_partition(&p, &w));
    let diags: Vec<_> = report.with_code(Code::HIGH_CUT).collect();
    assert_eq!(diags.len(), 1);
    assert_eq!(diags[0].severity, Severity::Warning);
    for &g in &diags[0].sites {
        let block = p.block_of(g);
        assert!(c.fanout(g).iter().any(|e| p.block_of(e.gate) != block));
    }
}
