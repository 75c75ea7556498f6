//! Property-based tests for the logic value systems.

use parsim_logic::{eval_combinational, Bit, GateKind, Logic4, LogicValue, Std9};
use proptest::prelude::*;

fn any_bit() -> impl Strategy<Value = Bit> {
    prop::sample::select(Bit::all().to_vec())
}

fn any_logic4() -> impl Strategy<Value = Logic4> {
    prop::sample::select(Logic4::all().to_vec())
}

fn any_std9() -> impl Strategy<Value = Std9> {
    prop::sample::select(Std9::all().to_vec())
}

fn comb_gate() -> impl Strategy<Value = GateKind> {
    prop::sample::select(vec![
        GateKind::And,
        GateKind::Nand,
        GateKind::Or,
        GateKind::Nor,
        GateKind::Xor,
        GateKind::Xnor,
    ])
}

proptest! {
    /// Embedding Bit into Logic4 commutes with every binary operation
    /// (the embedding is a homomorphism).
    #[test]
    fn bit_to_logic4_homomorphism(a in any_bit(), b in any_bit()) {
        let (la, lb): (Logic4, Logic4) = (a.into(), b.into());
        prop_assert_eq!(la.and(lb), Logic4::from(a.and(b)));
        prop_assert_eq!(la.or(lb), Logic4::from(a.or(b)));
        prop_assert_eq!(la.xor(lb), Logic4::from(a.xor(b)));
        prop_assert_eq!(la.not(), Logic4::from(a.not()));
    }

    /// Embedding Logic4 into Std9 commutes with every binary operation on
    /// the driving subset (`Z` inputs behave as unknown in both systems).
    #[test]
    fn logic4_to_std9_homomorphism(a in any_logic4(), b in any_logic4()) {
        let (sa, sb): (Std9, Std9) = (a.into(), b.into());
        prop_assert_eq!(sa.and(sb), Std9::from(a.and(b)));
        prop_assert_eq!(sa.or(sb), Std9::from(a.or(b)));
        prop_assert_eq!(sa.xor(sb), Std9::from(a.xor(b)));
        prop_assert_eq!(sa.not(), Std9::from(a.not()));
    }

    /// AND/OR are idempotent, commutative and associative in every system.
    #[test]
    fn lattice_laws_std9(a in any_std9(), b in any_std9(), c in any_std9()) {
        prop_assert_eq!(a.and(a).to_ux01(), a.to_ux01());
        prop_assert_eq!(a.and(b), b.and(a));
        prop_assert_eq!(a.or(b), b.or(a));
        prop_assert_eq!(a.and(b).and(c), a.and(b.and(c)));
        prop_assert_eq!(a.or(b).or(c), a.or(b.or(c)));
    }

    /// Double negation restores the `UX01` image of the input.
    #[test]
    fn double_negation(a in any_std9()) {
        prop_assert_eq!(a.not().not(), a.to_ux01());
    }

    /// A gate output that is a definite Boolean never depends on replacing an
    /// unknown input with a definite value in a way that contradicts it being
    /// "definite": monotonicity of the Kleene interpretation. We check the
    /// weaker, directly testable form: if all inputs are definite the output
    /// is definite.
    #[test]
    fn definite_inputs_give_definite_outputs(
        kind in comb_gate(),
        inputs in prop::collection::vec(any_bit(), 1..6),
    ) {
        let l4: Vec<Logic4> = inputs.iter().map(|&b| Logic4::from(b)).collect();
        let out = eval_combinational(kind, &l4);
        prop_assert!(out.to_bool().is_some());
    }

    /// Replacing one definite input by `X` either leaves the output unchanged
    /// or turns it into `X` — it can never flip a definite output to the
    /// opposite definite value (soundness of pessimistic unknowns).
    #[test]
    fn unknown_injection_is_sound(
        kind in comb_gate(),
        inputs in prop::collection::vec(any_bit(), 1..6),
        idx in any::<prop::sample::Index>(),
    ) {
        let l4: Vec<Logic4> = inputs.iter().map(|&b| Logic4::from(b)).collect();
        let baseline = eval_combinational(kind, &l4);
        let mut poisoned = l4.clone();
        let i = idx.index(poisoned.len());
        poisoned[i] = Logic4::X;
        let out = eval_combinational(kind, &poisoned);
        prop_assert!(out == baseline || out == Logic4::X,
            "{kind}: {baseline} became {out} after poisoning input {i}");
    }

    /// Bus resolution is commutative, associative and has Z as identity on
    /// the Logic4 system (exhaustive variants exist in unit tests; this keeps
    /// the law visible at the property level for Std9 triples too).
    #[test]
    fn resolution_monoid_std9(a in any_std9(), b in any_std9(), c in any_std9()) {
        prop_assert_eq!(a.resolve(b), b.resolve(a));
        prop_assert_eq!(a.resolve(b).resolve(c), a.resolve(b.resolve(c)));
    }
}

/// The allocating parser `GateKind::from_str` replaced, kept as its oracle:
/// upper-case the whole name, then match it.
fn gate_kind_by_uppercase(s: &str) -> Result<GateKind, String> {
    match s.to_ascii_uppercase().as_str() {
        "INPUT" => Ok(GateKind::Input),
        "CONST0" => Ok(GateKind::Const0),
        "CONST1" => Ok(GateKind::Const1),
        "BUF" | "BUFF" => Ok(GateKind::Buf),
        "NOT" | "INV" => Ok(GateKind::Not),
        "AND" => Ok(GateKind::And),
        "NAND" => Ok(GateKind::Nand),
        "OR" => Ok(GateKind::Or),
        "NOR" => Ok(GateKind::Nor),
        "XOR" => Ok(GateKind::Xor),
        "XNOR" => Ok(GateKind::Xnor),
        "MUX" | "MUX2" => Ok(GateKind::Mux2),
        "TRIBUF" => Ok(GateKind::Tribuf),
        "BUS" => Ok(GateKind::Bus),
        "DFF" => Ok(GateKind::Dff),
        "LATCH" => Ok(GateKind::Latch),
        _ => Err(s.to_owned()),
    }
}

/// Every mnemonic and alias `from_str` accepts.
const GATE_NAMES: &[&str] = &[
    "INPUT", "CONST0", "CONST1", "BUF", "BUFF", "NOT", "INV", "AND", "NAND", "OR", "NOR", "XOR",
    "XNOR", "MUX", "MUX2", "TRIBUF", "BUS", "DFF", "LATCH",
];

/// `name` with the letters whose bit is set in `mask` lower-cased.
fn recase(name: &str, mask: u64) -> String {
    name.chars()
        .enumerate()
        .map(|(i, c)| if mask >> (i % 64) & 1 == 1 { c.to_ascii_lowercase() } else { c })
        .collect()
}

proptest! {
    /// Every mnemonic and alias parses in any letter case, to the kind the
    /// upper-casing parser gave.
    #[test]
    fn gate_names_parse_in_any_case(name in prop::sample::select(GATE_NAMES.to_vec()), mask in any::<u64>()) {
        let text = recase(name, mask);
        let kind = text.parse::<GateKind>().map_err(|e| e.name().to_owned());
        prop_assert_eq!(kind, gate_kind_by_uppercase(name));
    }

    /// On arbitrary text, names included with a letter too many or too few
    /// and non-ASCII look-alikes, `from_str` agrees with the upper-casing
    /// parser, and a refusal echoes the original text.
    #[test]
    fn gate_kind_parse_matches_the_upper_casing_parser(
        parts in prop::collection::vec(
            prop::sample::select(vec![
                "A", "n", "D", "o", "r", "X", "b", "U", "f", "2", "0", "1", "t", "i", "L",
                "nand", "Xor", "mux", "BUFF", "İ", "ß", "ı", " ", "",
            ]),
            0..5,
        ),
        mask in any::<u64>(),
    ) {
        let text = recase(&parts.concat(), mask);
        let ours = text.parse::<GateKind>().map_err(|e| e.name().to_owned());
        prop_assert_eq!(ours, gate_kind_by_uppercase(&text));
    }
}
