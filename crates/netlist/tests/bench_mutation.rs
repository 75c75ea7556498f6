//! The `.bench` boundary under mutation. Every `bench` job body goes through
//! `bench::parse`, so no text may panic it, every error must name a line
//! the text has, and any text it accepts must survive `write` → `parse`
//! with its `netlist_hash` unchanged. Generated circuits are written with
//! `bench::write`, then truncated at every byte, byte-flipped, edited line
//! by line (spliced, duplicated, deleted) and given inflated gate arities.

use parsim_netlist::generate::{self, RandomDagConfig};
use parsim_netlist::{bench, Circuit, DelayModel};
use proptest::prelude::*;

fn any_circuit() -> impl Strategy<Value = Circuit> {
    prop_oneof![
        3 => (4usize..48, 1usize..8, 0.0f64..0.4, any::<u64>()).prop_map(
            |(gates, inputs, seq_fraction, seed)| {
                generate::random_dag(&RandomDagConfig {
                    gates,
                    inputs,
                    seq_fraction,
                    seed,
                    ..Default::default()
                })
            }
        ),
        1 => (1usize..5).prop_map(|bits| generate::ripple_adder(bits, DelayModel::Unit)),
        1 => (2usize..4).prop_map(|bits| generate::array_multiplier(bits, DelayModel::Unit)),
        1 => (2usize..6).prop_map(|bits| generate::counter(bits, DelayModel::Unit)),
        1 => (3usize..8).prop_map(|bits| generate::lfsr(bits, DelayModel::Unit)),
        1 => Just(bench::c17()),
        1 => Just(bench::s27ish()),
    ]
}

/// `parse` on `bytes` (lossily decoded, as any job body could be) returns
/// instead of panicking; an error names a line the text has; an accepted
/// text's circuit is exactly what its own `write` parses back to.
fn check(bytes: &[u8]) -> Result<(), TestCaseError> {
    let text = String::from_utf8_lossy(bytes);
    match bench::parse("mutant", &text, DelayModel::Unit) {
        Ok(c) => {
            let again = bench::parse("mutant", &bench::write(&c), DelayModel::Unit);
            prop_assert_eq!(again.map(|c| c.netlist_hash()), Ok(c.netlist_hash()));
        }
        Err(e) => {
            let lines = text.lines().count();
            prop_assert!(
                e.line().is_none_or(|l| (1..=lines).contains(&l)),
                "{} names a line outside the text's {}",
                e,
                lines
            );
        }
    }
    Ok(())
}

/// `lines` joined back into text.
fn join(lines: &[&str]) -> Vec<u8> {
    lines.join("\n").into_bytes()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn parse_survives_truncation_flips_line_edits_and_inflated_arity(
        circuit in any_circuit(),
        flips in prop::collection::vec((any::<prop::sample::Index>(), 1u8..=255), 1..24),
        edits in prop::collection::vec(
            (any::<prop::sample::Index>(), any::<prop::sample::Index>()),
            1..12,
        ),
        inflate in (any::<prop::sample::Index>(), 1usize..40),
    ) {
        let text = bench::write(&circuit);
        // The writer's own output is accepted and a fixed point.
        let parsed = bench::parse("mutant", &text, DelayModel::Unit);
        prop_assert!(parsed.is_ok(), "{} does not parse back: {:?}", circuit.name(), parsed);
        let bytes = text.as_bytes();
        for cut in 0..=bytes.len() {
            check(&bytes[..cut])?;
        }
        for &(at, mask) in &flips {
            let mut flipped = bytes.to_vec();
            flipped[at.index(bytes.len())] ^= mask;
            check(&flipped)?;
        }
        let lines: Vec<&str> = text.lines().collect();
        for &(a, b) in &edits {
            let (a, b) = (a.index(lines.len()), b.index(lines.len()));
            // Splice line `b` in before line `a`: a forward reference, a
            // second definition or an `INPUT` among the gates.
            let mut spliced = lines.clone();
            spliced.insert(a, lines[b]);
            check(&join(&spliced))?;
            // Duplicate line `a` in place.
            let mut duplicated = lines.clone();
            duplicated.insert(a, lines[a]);
            check(&join(&duplicated))?;
            // Delete line `a`: often the one definition of a net in use.
            let mut deleted = lines.clone();
            deleted.remove(a);
            check(&join(&deleted))?;
            // Swap lines `a` and `b`: same nets, another numbering.
            let mut swapped = lines.clone();
            swapped.swap(a, b);
            check(&join(&swapped))?;
        }
        // Inflate one gate's arity by repeating its first operand.
        let (at, extra) = inflate;
        let gates: Vec<usize> =
            (0..lines.len()).filter(|&i| lines[i].contains("= ") && !lines[i].ends_with("()")).collect();
        if !gates.is_empty() {
            let i = gates[at.index(gates.len())];
            let line = lines[i].strip_suffix(')').expect("a gate line ends in ')'");
            let open = line.find('(').expect("a gate line has operands");
            let first = line[open + 1..].split(',').next().expect("one operand").trim();
            let inflated = format!("{line}{})", format!(", {first}").repeat(extra));
            let mut edited = lines.clone();
            edited[i] = &inflated;
            check(&join(&edited))?;
        }
    }
}

/// A flip-flop read before its data net is defined: numbering by first
/// appearance used to give `d` an id below `q`'s, so writing the circuit
/// and parsing it back renumbered both and moved the hash.
#[test]
fn forward_references_round_trip() {
    let src = "INPUT(clk)\nINPUT(a)\nOUTPUT(q)\nq = DFF(clk, d)\nd = NAND(q, a)\n";
    let c = bench::parse("fwd", src, DelayModel::Unit).expect("valid");
    let again = bench::parse("fwd", &bench::write(&c), DelayModel::Unit).expect("valid");
    assert_eq!(again.netlist_hash(), c.netlist_hash());
}

/// The ISCAS-89 implicit clock is an input like any other: synthesized or
/// written out, it gets the same delay, so the written form parses back to
/// the same netlist.
#[test]
fn implicit_clock_round_trips() {
    let c = bench::s27ish();
    let again = bench::parse("s27ish", &bench::write(&c), DelayModel::Unit).expect("valid");
    assert_eq!(again.netlist_hash(), c.netlist_hash());
}

/// `write` emits constants as `CONST0()` / `CONST1()`; `parse` used to
/// reject the empty operand list, so no circuit with a constant could be
/// read back.
#[test]
fn constants_round_trip() {
    let c = generate::counter(3, DelayModel::Unit);
    let text = bench::write(&c);
    assert!(text.contains("CONST1()"), "the counter's carry-in is a constant");
    let parsed = bench::parse("counter", &text, DelayModel::Unit).expect("constants parse");
    let again = bench::parse("counter", &bench::write(&parsed), DelayModel::Unit).expect("valid");
    assert_eq!(again.netlist_hash(), parsed.netlist_hash());
}
