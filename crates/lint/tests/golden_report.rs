//! The default linter's pretty report over the generator ladder and the
//! seeded-defect circuits, pinned byte for byte to
//! `tests/golden/default_report.txt`.
//!
//! The golden file was rendered before the zero-delay-loop pass moved onto
//! the shared SCC condensation. That move changed what the pass reports (it
//! now finds a loop downstream of another loop), so `zero-delay-loop`
//! findings are masked on both sides: their lines are dropped and the
//! header's warning count is reduced by as many. Every other byte must
//! match.

use parsim_lint::{check_build, LintContext, Linter};
use parsim_logic::GateKind;
use parsim_netlist::generate::{self, RandomDagConfig};
use parsim_netlist::{bench, Circuit, CircuitBuilder, Delay, DelayModel, GateId};
use parsim_partition::{ConePartitioner, GateWeights, Partition, Partitioner};

const GOLDEN: &str = include_str!("golden/default_report.txt");

/// Every generator at a few sizes under four delay models, the zero-delay
/// one included, plus the two embedded `.bench` circuits.
fn ladder() -> Vec<Circuit> {
    let mut out = vec![bench::c17(), bench::s27ish()];
    for d in [
        DelayModel::Unit,
        DelayModel::Fixed(Delay::ZERO),
        DelayModel::PerKind,
        DelayModel::Uniform { min: 1, max: 5, seed: 3 },
    ] {
        out.extend([
            generate::ripple_adder(4, d),
            generate::ripple_adder(32, d),
            generate::carry_select_adder(16, d),
            generate::array_multiplier(6, d),
            generate::lfsr(16, d),
            generate::shift_register(32, d),
            generate::counter(8, d),
            generate::ring(12, d),
            generate::tree(GateKind::Nand, 64, d),
            generate::tree(GateKind::Xor, 7, d),
            generate::mesh(7, 7, d),
            generate::decoder(4, d),
            generate::priority_encoder(8, d),
            generate::tristate_bus(6, d),
        ]);
        for (gates, seq_fraction, seed) in [(400, 0.1, 1), (1500, 0.3, 2), (300, 0.0, 3)] {
            out.push(generate::random_dag(&RandomDagConfig {
                gates,
                seq_fraction,
                delays: d,
                seed,
                ..Default::default()
            }));
        }
    }
    out
}

/// `y = a AND b`, the clean base every seeded defect starts from.
fn clean_base(name: &str) -> (CircuitBuilder, [GateId; 3]) {
    let mut b = CircuitBuilder::new(name);
    let a = b.input("a");
    let x = b.input("b");
    let and = b.gate(GateKind::And, [a, x], Delay::UNIT);
    b.output("y", and);
    (b, [a, x, and])
}

/// A zero-delay latch loop `q = LATCH(en, AND(q, data))`; returns `q`.
fn zero_delay_latch(b: &mut CircuitBuilder, tag: &str, en: GateId, data: GateId) -> GateId {
    let q = b.declare(format!("q{tag}"));
    let g = b.named_gate(format!("g{tag}"), GateKind::And, [q, data], Delay::ZERO);
    b.define(q, GateKind::Latch, [en, g], Delay::ZERO);
    q
}

/// Circuits that build but carry one or more lint findings.
fn seeded() -> Vec<Circuit> {
    let mut out = Vec::new();

    let (mut b, _) = clean_base("unused_input");
    b.input("spare");
    out.push(b.finish().unwrap());

    let (mut b, [_, _, y]) = clean_base("dead_logic");
    b.named_gate("dead", GateKind::Not, [y], Delay::UNIT);
    out.push(b.finish().unwrap());

    let (mut b, [_, _, y]) = clean_base("const_cone");
    let one = b.constant(true);
    let folded = b.named_gate("folded", GateKind::Not, [one], Delay::UNIT);
    let or = b.gate(GateKind::Or, [y, folded], Delay::UNIT);
    b.output("z", or);
    out.push(b.finish().unwrap());

    let (mut b, [a, x, _]) = clean_base("duplicate_gate");
    let twin = b.named_gate("twin", GateKind::And, [x, a], Delay::UNIT);
    b.output("z", twin);
    out.push(b.finish().unwrap());

    let mut b = CircuitBuilder::new("fanout_hotspot");
    let hub = b.input("hub");
    for i in 0..40 {
        let other = b.input(format!("in{i}"));
        let g = b.gate(GateKind::And, [hub, other], Delay::UNIT);
        b.output(format!("o{i}"), g);
    }
    out.push(b.finish().unwrap());

    let mut b = CircuitBuilder::new("shape_imbalance");
    let mut cur = b.input("a");
    for _ in 0..30 {
        cur = b.gate(GateKind::Not, [cur], Delay::UNIT);
    }
    b.output("y", cur);
    out.push(b.finish().unwrap());

    let mut b = CircuitBuilder::new("zero_delay_loop");
    let en = b.input("en");
    let a = b.input("a");
    let q = zero_delay_latch(&mut b, "", en, a);
    b.output("y", q);
    out.push(b.finish().unwrap());

    // Loop B reads loop A's output: the second loop sits downstream of the
    // first.
    let mut b = CircuitBuilder::new("chained_zero_delay_loops");
    let en = b.input("en");
    let a = b.input("a");
    let qa = zero_delay_latch(&mut b, "a", en, a);
    let qb = zero_delay_latch(&mut b, "b", en, qa);
    b.output("y", qb);
    out.push(b.finish().unwrap());

    let mut b = CircuitBuilder::new("defective");
    let a = b.input("a");
    let x = b.input("b");
    b.input("spare");
    let and1 = b.named_gate("and1", GateKind::And, [a, x], Delay::UNIT);
    let and2 = b.named_gate("and2", GateKind::And, [x, a], Delay::UNIT);
    let one = b.constant(true);
    let folded = b.named_gate("folded", GateKind::Not, [one], Delay::UNIT);
    let live = b.gate(GateKind::Or, [and1, folded], Delay::UNIT);
    b.output("y", live);
    b.named_gate("dangling", GateKind::Not, [and2], Delay::UNIT);
    out.push(b.finish().unwrap());

    out
}

/// Builders that fail the structural check.
fn broken() -> Vec<CircuitBuilder> {
    let mut out = vec![CircuitBuilder::new("empty")];

    let (mut b, _) = clean_base("undefined_gate");
    b.declare("ghost");
    out.push(b);

    let (mut b, [a, x, _]) = clean_base("bad_arity");
    let bad = b.named_gate("two_pin_not", GateKind::Not, [a, x], Delay::UNIT);
    b.output("z", bad);
    out.push(b);

    let (mut b, [a, _, _]) = clean_base("duplicate_name");
    let g1 = b.named_gate("twin", GateKind::Buf, [a], Delay::UNIT);
    let g2 = b.named_gate("twin", GateKind::Not, [a], Delay::UNIT);
    b.output("o1", g1);
    b.output("o2", g2);
    out.push(b);

    let (mut b, _) = clean_base("combinational_cycle");
    let back = b.declare("back");
    let fwd = b.named_gate("fwd", GateKind::Not, [back], Delay::UNIT);
    b.define(back, GateKind::Not, [fwd], Delay::UNIT);
    b.output("osc", back);
    out.push(b);

    let mut b = CircuitBuilder::new("multi");
    let a = b.input("a");
    let ghost = b.declare("ghost");
    b.gate(GateKind::And, [a, ghost], Delay::UNIT);
    b.named_gate("m", GateKind::Mux2, [a, a], Delay::UNIT);
    b.named_gate("a", GateKind::Buf, [a], Delay::UNIT);
    out.push(b);

    let mut b = CircuitBuilder::new("ring_oscillator");
    let en = b.input("en");
    let loop_back = b.declare("loop_back");
    let n1 = b.named_gate("n1", GateKind::Nand, [en, loop_back], Delay::UNIT);
    let n2 = b.named_gate("n2", GateKind::Not, [n1], Delay::UNIT);
    b.define(loop_back, GateKind::Not, [n2], Delay::UNIT);
    b.output("osc", loop_back);
    out.push(b);

    out
}

/// Every report the golden file holds, in order.
fn render() -> String {
    let linter = Linter::with_default_passes();
    let mut out = String::new();
    for c in ladder().iter().chain(&seeded()) {
        out += &linter.run(&LintContext::new(c)).render_pretty();
    }
    // The partition-quality passes, on cone partitions and on the two
    // extremes of the §III tension.
    for c in [generate::mesh(7, 7, DelayModel::Unit), generate::counter(8, DelayModel::Unit)] {
        let w = GateWeights::uniform(c.len());
        let striped = Partition::new(2, (0..c.len()).map(|i| i % 2).collect()).unwrap();
        let skewed =
            Partition::new(2, (0..c.len()).map(|i| usize::from(i >= c.len() - 4)).collect())
                .unwrap();
        let cones = ConePartitioner.partition(&c, 4, &w);
        for p in [&striped, &skewed, &cones] {
            out += &linter.run(&LintContext::new(&c).with_partition(p, &w)).render_pretty();
        }
    }
    for b in broken() {
        out += &check_build(b).map(|_| ()).unwrap_err().render_pretty();
    }
    out
}

/// Drops every `zero-delay-loop` finding (its line and the indented lines
/// under it) and takes each out of its report's warning count.
fn mask_zero_delay(text: &str) -> String {
    let mut lines: Vec<String> = Vec::new();
    let mut header = None;
    let mut dropped = 0;
    let mut skipping = false;
    for line in text.lines() {
        if line.starts_with("lint report for ") {
            fix_header(&mut lines, header, dropped);
            header = Some(lines.len());
            dropped = 0;
        } else if line.starts_with("warning[zero-delay-loop]") {
            dropped += 1;
            skipping = true;
            continue;
        } else if skipping && line.starts_with("  ") {
            continue;
        }
        skipping = false;
        lines.push(line.to_owned());
    }
    fix_header(&mut lines, header, dropped);
    lines.join("\n")
}

/// Rewrites the header at `lines[at]` as if `dropped` warnings had never
/// been reported.
fn fix_header(lines: &mut [String], at: Option<usize>, dropped: usize) {
    let Some(at) = at else { return };
    if dropped == 0 {
        return;
    }
    let (head, counts) = lines[at].rsplit_once(": ").expect("header has counts");
    let n: Vec<usize> = counts
        .split(", ")
        .map(|part| part.split(' ').next().unwrap().parse().expect("a count"))
        .collect();
    let warnings = n[1] - dropped;
    let clean = if n[0] + warnings + n[2] == 0 { " — clean" } else { "" };
    lines[at] =
        format!("{head}: {} error(s), {warnings} warning(s), {} note(s){clean}", n[0], n[2]);
}

#[test]
fn default_report_matches_the_golden_file() {
    let (got, want) = (mask_zero_delay(&render()), mask_zero_delay(GOLDEN));
    if got != want {
        let at = got.lines().zip(want.lines()).position(|(g, w)| g != w);
        let at = at.unwrap_or_else(|| got.lines().count().min(want.lines().count()));
        panic!(
            "report differs from the golden file at masked line {}:\n  got:  {:?}\n  want: {:?}",
            at + 1,
            got.lines().nth(at),
            want.lines().nth(at),
        );
    }
}

#[test]
fn the_mask_drops_only_zero_delay_findings() {
    let text = "lint report for \"t\": 0 error(s), 2 warning(s), 0 note(s)\n\
                warning[zero-delay-loop]: loop\n  sites: g1, g2\n  help: h\n\
                warning[dead-logic]: d\n  sites: g3\n\
                lint report for \"u\": 0 error(s), 1 warning(s), 0 note(s)\n\
                warning[zero-delay-loop]: loop\n  sites: g0\n";
    assert_eq!(
        mask_zero_delay(text),
        "lint report for \"t\": 0 error(s), 1 warning(s), 0 note(s)\n\
         warning[dead-logic]: d\n  sites: g3\n\
         lint report for \"u\": 0 error(s), 0 warning(s), 0 note(s) — clean"
    );
}
