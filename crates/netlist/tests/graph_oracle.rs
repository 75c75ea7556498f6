//! `Levelization::of` and the builder's structural check against the
//! separate walks they replaced.
//!
//! Both now run one shared combinational peel. The references below keep
//! the earlier walks: a FIFO Kahn for the levels, and for the build errors
//! the earlier check over the netlist as plain data, a LIFO Kahn plus a
//! backward cycle walk. Every generator,
//! rebuilt gate by gate with back edges, extra pins, undefined gates and
//! reused names injected, must produce the same levels, `order()`,
//! `depth()` and the same `finish()` / `finish_with_diagnostics()` errors,
//! down to the variant, the gate ids and the names.

use std::collections::{HashMap, VecDeque};

use parsim_logic::GateKind;
use parsim_netlist::generate::{self, RandomDagConfig};
use parsim_netlist::{bench, Circuit, CircuitBuilder, Delay, DelayModel, GateId, Levelization};
use parsim_netlist::{NetlistError, StructuralReport};
use proptest::prelude::*;

/// The levels, order and depth the FIFO Kahn computed.
fn reference_levelization(circuit: &Circuit) -> (Vec<u32>, Vec<GateId>, u32) {
    let n = circuit.len();
    let mut levels = vec![0u32; n];
    let mut indegree = vec![0usize; n];
    for (id, g) in circuit.iter() {
        if !g.kind().is_sequential() {
            indegree[id.index()] = g.fanin().len();
        }
    }
    let mut order: Vec<GateId> = Vec::with_capacity(n);
    let mut ready: VecDeque<usize> = (0..n).filter(|&i| indegree[i] == 0).collect();
    while let Some(i) = ready.pop_front() {
        order.push(GateId::new(i));
        for entry in circuit.fanout(GateId::new(i)) {
            let j = entry.gate.index();
            if circuit.kind(entry.gate).is_sequential() {
                continue;
            }
            levels[j] = levels[j].max(levels[i] + 1);
            indegree[j] -= 1;
            if indegree[j] == 0 {
                ready.push_back(j);
            }
        }
    }
    let depth = levels.iter().copied().max().unwrap_or(0);
    (levels, order, depth)
}

/// One gate of a netlist under construction: `None` kind means declared
/// and never defined.
#[derive(Debug, Clone)]
struct Spec {
    kind: Option<GateKind>,
    fanin: Vec<usize>,
    delay: Delay,
    name: Option<String>,
}

/// A netlist as plain data, so it can be mutated into an invalid one.
#[derive(Debug, Clone)]
struct Netlist {
    gates: Vec<Spec>,
    outputs: Vec<(String, usize)>,
}

impl Netlist {
    fn of(c: &Circuit) -> Self {
        let gates = c
            .iter()
            .map(|(_, g)| Spec {
                kind: Some(g.kind()),
                fanin: g.fanin().iter().map(|f| f.index()).collect(),
                delay: g.delay(),
                name: g.name().map(str::to_owned),
            })
            .collect();
        let outputs = c
            .outputs()
            .iter()
            .map(|&o| (c.gate(o).name().expect("outputs are named").to_owned(), o.index()))
            .collect();
        Netlist { gates, outputs }
    }

    /// The same gates, in the same slots, through the builder's public
    /// API. Fanin ids may point forward: the builder resolves them at
    /// `finish`.
    fn builder(&self) -> CircuitBuilder {
        let mut b = CircuitBuilder::new("oracle");
        for (i, g) in self.gates.iter().enumerate() {
            let fanin = g.fanin.iter().map(|&f| GateId::new(f));
            let id = match (g.kind, &g.name) {
                (None, name) => b.declare(name.clone().expect("undefined gates are named")),
                (Some(GateKind::Input), name) => b.input(name.clone().expect("inputs are named")),
                (Some(kind), Some(name)) => b.named_gate(name.clone(), kind, fanin, g.delay),
                (Some(kind), None) => b.gate(kind, fanin, g.delay),
            };
            assert_eq!(id.index(), i);
        }
        for (name, o) in &self.outputs {
            b.output(name.clone(), GateId::new(*o));
        }
        b
    }

    fn display_name(&self, i: usize) -> String {
        self.gates[i].name.clone().unwrap_or_else(|| GateId::new(i).to_string())
    }

    /// Every structural issue, as the builder's earlier check listed them.
    fn reference_issues(&self) -> Vec<NetlistError> {
        let gates = &self.gates;
        if gates.is_empty() {
            return vec![NetlistError::Empty];
        }
        let mut issues = Vec::new();
        for (i, g) in gates.iter().enumerate() {
            if g.kind.is_none() {
                let gate = GateId::new(i);
                issues.push(NetlistError::UndefinedGate { gate, name: self.display_name(i) });
            }
        }
        for (i, g) in gates.iter().enumerate() {
            let Some(kind) = g.kind else { continue };
            if !kind.accepts_inputs(g.fanin.len()) {
                issues.push(NetlistError::BadArity {
                    gate: GateId::new(i),
                    name: self.display_name(i),
                    kind,
                    got: g.fanin.len(),
                });
            }
        }
        let mut holders: HashMap<&str, Vec<GateId>> = HashMap::new();
        for (i, g) in gates.iter().enumerate() {
            if let Some(name) = &g.name {
                holders.entry(name).or_default().push(GateId::new(i));
            }
        }
        let mut duplicates: Vec<(&str, Vec<GateId>)> =
            holders.into_iter().filter(|(_, h)| h.len() > 1).collect();
        duplicates.sort_by_key(|(_, h)| h[0]);
        for (name, gates) in duplicates {
            issues.push(NetlistError::DuplicateName { name: name.to_owned(), gates });
        }
        if gates.iter().all(|g| g.kind.is_some()) {
            let n = gates.len();
            let sequential = |i: usize| gates[i].kind.expect("defined").is_sequential();
            let mut fanout = vec![Vec::new(); n];
            for (i, g) in gates.iter().enumerate() {
                for &f in &g.fanin {
                    fanout[f].push(i);
                }
            }
            let mut indegree: Vec<usize> =
                (0..n).map(|i| if sequential(i) { 0 } else { gates[i].fanin.len() }).collect();
            let mut ready: Vec<usize> = (0..n).filter(|&i| indegree[i] == 0).collect();
            let mut done = 0usize;
            while let Some(i) = ready.pop() {
                done += 1;
                for &j in &fanout[i] {
                    if sequential(j) {
                        continue;
                    }
                    indegree[j] -= 1;
                    if indegree[j] == 0 {
                        ready.push(j);
                    }
                }
            }
            if done < n {
                let cycle = self.reference_cycle(&indegree);
                let names = cycle.iter().map(|g| self.display_name(g.index())).collect();
                issues.push(NetlistError::CombinationalCycle { gates: cycle, names });
            }
        }
        issues
    }

    fn reference_cycle(&self, indegree: &[usize]) -> Vec<GateId> {
        let start = indegree.iter().position(|&d| d > 0).expect("an unresolved gate");
        let mut seen = vec![usize::MAX; self.gates.len()];
        let mut path = Vec::new();
        let mut cur = start;
        loop {
            if seen[cur] != usize::MAX {
                return path[seen[cur]..].iter().map(|&i| GateId::new(i)).collect();
            }
            seen[cur] = path.len();
            path.push(cur);
            cur = self.gates[cur]
                .fanin
                .iter()
                .copied()
                .find(|&f| indegree[f] > 0)
                .unwrap_or_else(|| self.gates[cur].fanin[0]);
        }
    }
}

/// One structural edit to a netlist, applied modulo its size.
#[derive(Debug, Clone)]
enum Mutation {
    /// Gate `i` reads gate `j` on an existing pin instead.
    Rewire { i: usize, pin: usize, j: usize },
    /// Gate `i` reads, on an existing pin, a gate at or after it in id
    /// order: a back edge in a generator's topological numbering.
    BackEdge { i: usize, pin: usize, k: usize },
    /// Gate `i` reads gate `j` on one more pin.
    AddPin { i: usize, j: usize },
    /// Gate `i` loses its last pin.
    DropPin { i: usize },
    /// Gate `i` is declared and never defined.
    Undefine { i: usize },
    /// Gate `i` takes gate `j`'s name.
    Rename { i: usize, j: usize },
}

impl Mutation {
    fn apply(&self, net: &mut Netlist) {
        let n = net.gates.len();
        match *self {
            Mutation::Rewire { i, pin, j } => {
                let g = &mut net.gates[i % n];
                if !g.fanin.is_empty() {
                    let pin = pin % g.fanin.len();
                    g.fanin[pin] = j % n;
                }
            }
            Mutation::BackEdge { i, pin, k } => {
                let i = i % n;
                Mutation::Rewire { i, pin, j: i + k % (n - i) }.apply(net);
            }
            Mutation::AddPin { i, j } => {
                let g = &mut net.gates[i % n];
                if g.kind.is_some_and(|k| k != GateKind::Input) {
                    g.fanin.push(j % n);
                }
            }
            Mutation::DropPin { i } => {
                net.gates[i % n].fanin.pop();
            }
            Mutation::Undefine { i } => {
                let g = &mut net.gates[i % n];
                g.kind = None;
                g.fanin.clear();
                g.delay = Delay::ZERO;
                g.name.get_or_insert_with(|| format!("undefined{i}"));
            }
            Mutation::Rename { i, j } => {
                if let Some(name) = net.gates[j % n].name.clone() {
                    net.gates[i % n].name = Some(name);
                }
            }
        }
    }
}

fn any_mutation() -> impl Strategy<Value = Mutation> {
    let ix = 0usize..100_000;
    prop_oneof![
        4 => (ix.clone(), 0usize..8, ix.clone())
            .prop_map(|(i, pin, k)| Mutation::BackEdge { i, pin, k }),
        4 => (ix.clone(), 0usize..8, ix.clone())
            .prop_map(|(i, pin, j)| Mutation::Rewire { i, pin, j }),
        2 => (ix.clone(), ix.clone()).prop_map(|(i, j)| Mutation::AddPin { i, j }),
        1 => ix.clone().prop_map(|i| Mutation::DropPin { i }),
        1 => ix.clone().prop_map(|i| Mutation::Undefine { i }),
        1 => (ix.clone(), ix).prop_map(|(i, j)| Mutation::Rename { i, j }),
    ]
}

/// Generator `which` at size `s` (2..=12), under delay model `d`.
fn generated(which: usize, s: usize, d: DelayModel, seed: u64) -> Circuit {
    match which % 16 {
        0 => generate::ripple_adder(s, d),
        1 => generate::array_multiplier(s.min(6), d),
        2 => generate::lfsr(s, d),
        3 => generate::shift_register(s, d),
        4 => generate::counter(s, d),
        5 => generate::ring(s, d),
        6 => generate::tree(GateKind::Nand, s, d),
        7 => generate::tree(GateKind::Xor, s + 3, d),
        8 => generate::mesh(s, s + 1, d),
        9 => generate::decoder(s.min(8), d),
        10 => generate::priority_encoder(s, d),
        11 => generate::carry_select_adder(s, d),
        12 => generate::tristate_bus(s, d),
        13 => generate::random_dag(&RandomDagConfig {
            gates: 20 * s,
            seq_fraction: 0.2,
            delays: d,
            seed,
            ..Default::default()
        }),
        14 => bench::c17(),
        _ => bench::s27ish(),
    }
}

/// Builds `net` both ways and checks every result against the references.
fn check(net: &Netlist) -> Result<(), TestCaseError> {
    let want = net.reference_issues();
    match net.builder().finish_with_diagnostics() {
        Ok(c) => {
            prop_assert!(want.is_empty(), "built despite {want:?}");
            let lv = Levelization::of(&c);
            let (levels, order, depth) = reference_levelization(&c);
            let got: Vec<u32> = c.ids().map(|id| lv.level(id)).collect();
            prop_assert_eq!(got, levels);
            prop_assert_eq!(lv.order(), &order[..]);
            prop_assert_eq!(lv.depth(), depth);
        }
        Err(report) => prop_assert_eq!(report.issues(), &want[..]),
    }
    let first = net.builder().finish().err();
    prop_assert_eq!(first.as_ref(), want.first());
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn levels_and_build_errors_match_the_reference_walks(
        which in 0usize..16,
        size in 2usize..=12,
        delay in 0usize..3,
        seed in any::<u64>(),
        mutations in prop::collection::vec(any_mutation(), 0..4),
    ) {
        let d = [DelayModel::Unit, DelayModel::Fixed(Delay::ZERO), DelayModel::PerKind][delay];
        let mut net = Netlist::of(&generated(which, size, d, seed));
        for m in &mutations {
            m.apply(&mut net);
        }
        check(&net)?;
    }
}

#[test]
fn every_generator_levelizes_as_the_reference_did() {
    for which in 0..16 {
        for size in [2, 5, 12] {
            let c = generated(which, size, DelayModel::Unit, 7);
            let lv = Levelization::of(&c);
            let (levels, order, depth) = reference_levelization(&c);
            assert_eq!(c.ids().map(|id| lv.level(id)).collect::<Vec<_>>(), levels, "{}", c.name());
            assert_eq!(lv.order(), &order[..], "{}", c.name());
            assert_eq!(lv.depth(), depth, "{}", c.name());
        }
    }
}

#[test]
fn injected_back_edges_fail_with_the_reference_cycle() {
    // Every combinational gate of a ripple adder rewired to read the last
    // gate: most close a loop, and each must name the reference's cycle.
    let net = Netlist::of(&generate::ripple_adder(4, DelayModel::Unit));
    let last = net.gates.len() - 1;
    let mut cycles = 0;
    for i in 0..net.gates.len() {
        if net.gates[i].fanin.is_empty() {
            continue;
        }
        let mut bad = net.clone();
        Mutation::Rewire { i, pin: 0, j: last }.apply(&mut bad);
        let want = bad.reference_issues();
        cycles += usize::from(matches!(want.last(), Some(NetlistError::CombinationalCycle { .. })));
        let got = bad.builder().finish_with_diagnostics().err();
        assert_eq!(
            got.as_ref().map(StructuralReport::issues),
            (!want.is_empty()).then_some(&want[..])
        );
    }
    assert!(cycles > 10, "only {cycles} rewirings closed a loop");
}
